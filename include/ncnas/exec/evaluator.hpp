// TrainingEvaluator — the reward estimation (paper §3.3).
//
// TrainingEvaluator performs a genuine low-fidelity training of the generated
// architecture (configurable epochs and training-data fraction, agent-seeded
// weight init) and scores it on the validation split. The cost model decides
// the task's *simulated* duration; a task whose simulated duration exceeds
// the timeout is killed (reward floor) exactly as Balsam killed overlong jobs
// on Theta — we also skip the real training in that case.
//
// The evaluation is split in two halves. plan() runs at dispatch: it builds
// the model and fills the facts the simulated cluster needs (parameter count,
// simulated duration, timeout). train() rebuilds the model and computes the
// reward; submit() hands it to a thread pool so trainings of many agents
// overlap while the driver keeps dispatching, as Balsam ran reward tasks on
// worker nodes. The reward is a pure function of (arch, seed, fidelity), so
// when and where train() runs never changes a result bit.
//
// CachedEvaluator is the paper's per-agent evaluation cache: re-generated
// architectures return their stored reward instantly (no worker task), which
// is the mechanism behind A3C's late-search utilization decay and the
// all-agents-converged stopping rule.
//
// fit_and_score() is the training itself, shared with every rung of
// exec::FidelityLadder: multi-fidelity estimation is the same estimator at
// smaller budgets, so both paths fit, score and time a model in one place.
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <unordered_map>

#include "ncnas/data/dataset.hpp"
#include "ncnas/exec/cost_model.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/builder.hpp"
#include "ncnas/space/search_space.hpp"
#include "ncnas/tensor/thread_pool.hpp"

namespace ncnas::exec {

struct FidelityConfig {
  std::size_t epochs = 1;          ///< search-time training epochs (paper: 1)
  double subset_fraction = 1.0;    ///< training-data fraction (Combo: 0.10)
  /// Reward-estimation optimizer settings. The paper used Adam(1e-3) with
  /// per-benchmark batch sizes at full data scale (~100 steps per epoch);
  /// because our data is dimensionally scaled down, the per-benchmark presets
  /// (see benchmark_fidelity()) pick batch/lr so one low-fidelity epoch takes
  /// a comparable number of effective optimizer steps. batch_size 0 means
  /// "use the dataset's default".
  float learning_rate = 0.001f;
  std::size_t batch_size = 0;
  /// Fraction of the validation split used to score the reward (leading
  /// rows). The paper scores on the full validation set; shrinking it is a
  /// host-throughput lever that adds a little reward noise — which the paper
  /// itself reports (same arch, different reward) and tolerates.
  double valid_fraction = 1.0;
};

/// What the training half of an evaluation produces (fit_and_score).
struct TrainOutcome {
  float reward = 0.0f;
  double train_wall_ms = 0.0;
};

struct EvalResult {
  float reward = 0.0f;             ///< validation R2 / ACC, floored on timeout
  double sim_duration = 0.0;       ///< simulated seconds the task occupies a worker
  std::size_t params = 0;          ///< trainable parameter count of the model
  bool timed_out = false;
  bool cache_hit = false;
  /// True when the result was served from a process-wide SharedEvalCache
  /// (implies cache_hit) — i.e. some tenant, possibly another one, trained
  /// this architecture earlier and the training was skipped entirely.
  bool shared_hit = false;
  /// Real (host) training wall time. Only measured when a telemetry sink is
  /// attached — stays 0.0 on the null path so results remain bit-identical.
  double train_wall_ms = 0.0;
  /// Highest fidelity rung this result reached (exec::FidelityLadder);
  /// always 0 for flat evaluations, so null-ladder runs are unchanged.
  std::uint32_t rung = 0;
  /// The training behind `reward` and `train_wall_ms` while they may not be
  /// known yet (TrainingEvaluator::submit). Copies share it, so the record
  /// that dispatched a training and every cache entry or hit made from it
  /// read the same outcome. Not part of a snapshot: join first.
  std::shared_future<TrainOutcome> training;

  /// Waits for `training` if there is one and copies its outcome into
  /// `reward` and `train_wall_ms`. Rethrows what the training threw.
  void join();
};

/// Raw measurements handed to a custom reward function.
struct RewardInputs {
  float metric = 0.0f;        ///< validation R2 / ACC
  std::size_t params = 0;     ///< trainable parameter count
  double sim_duration = 0.0;  ///< simulated training seconds
};

/// Custom reward shaping (paper §5: "other metrics can be specified, such as
/// model size, training time, and inference time ... using a custom reward
/// function"). Must be pure and thread-safe.
using RewardFn = std::function<float(const RewardInputs&)>;

/// The paper's multi-objective example: accuracy with a soft penalty on
/// model size — reward = metric - weight * log10(params / ref_params) for
/// params above `ref_params`, unchanged below.
[[nodiscard]] RewardFn size_penalized_reward(float weight, std::size_t ref_params);

class TrainingEvaluator {
 public:
  /// Both referents must outlive the evaluator.
  TrainingEvaluator(const space::SearchSpace& space, const data::Dataset& dataset,
                    FidelityConfig fidelity, CostModel cost);

  /// Installs a custom reward; pass nullptr to restore the plain metric.
  void set_reward_fn(RewardFn fn) { reward_fn_ = std::move(fn); }

  /// Attach a telemetry sink (null to detach). Trainings then record their
  /// real wall time (train_wall_histogram); the registry is thread-safe, so
  /// pool-parallel evaluations share one sink.
  void set_telemetry(obs::Telemetry* telemetry);

  /// submit() without a pool: the training runs inline. `seed` is the
  /// agent-specific weight initialization seed (same arch + different seed
  /// may differ, per paper).
  [[nodiscard]] EvalResult evaluate(const space::ArchEncoding& arch, std::uint64_t seed) const;

  /// Builds the model to count its parameters and fills `params`,
  /// `sim_duration` and `timed_out` — everything a simulated dispatch reads
  /// — then submits the training to `pool`, whose outcome the result's
  /// `training` handle resolves to. Without a pool the training runs
  /// inline and the result is already final. A task over the timeout is
  /// killed untrained: it gets the floor reward and no handle. The evaluator
  /// must outlive the training.
  ///
  /// `on_final`, when set, runs once the reward is known: on the pool
  /// worker right after the training, once its outcome is readable through
  /// the handle, or before submit() returns when there is no pool or no
  /// training. It must not throw.
  [[nodiscard]] EvalResult submit(const space::ArchEncoding& arch, std::uint64_t seed,
                                  tensor::ThreadPool* pool,
                                  std::function<void()> on_final = {}) const;

  /// eval_context_key(dataset, fidelity, cost_model) — the full recipe that
  /// determines a reward besides (arch, seed). Caches fold it into their
  /// keys, so rewards can never leak between different data or budgets.
  [[nodiscard]] std::string context_key() const;

  /// Builds the model for `arch` without training (used for post-training).
  [[nodiscard]] nn::Graph build(const space::ArchEncoding& arch, std::uint64_t seed) const;

  [[nodiscard]] const data::Dataset& dataset() const noexcept { return *dataset_; }
  [[nodiscard]] const space::SearchSpace& space() const noexcept { return *space_; }
  [[nodiscard]] const FidelityConfig& fidelity() const noexcept { return fidelity_; }
  [[nodiscard]] const CostModel& cost_model() const noexcept { return cost_; }

  /// exec::reward_floor(dataset()).
  [[nodiscard]] float reward_floor() const noexcept;

 private:
  /// submit()'s dispatch-time half.
  [[nodiscard]] EvalResult plan(const space::ArchEncoding& arch, std::uint64_t seed) const;
  /// submit()'s training half: rebuilds the model from (arch, seed) — so a
  /// queued training holds no graph — and runs fit_and_score on it.
  /// Thread-safe.
  [[nodiscard]] TrainOutcome train(const space::ArchEncoding& arch, std::uint64_t seed,
                                   const EvalResult& planned) const;

  const space::SearchSpace* space_;
  const data::Dataset* dataset_;
  FidelityConfig fidelity_;
  CostModel cost_;
  RewardFn reward_fn_;
  obs::Histogram* train_wall_ms_ = nullptr;
};

/// Per-agent cache keyed by (evaluation context, architecture encoding). The
/// context prefix — the evaluator's context_key(), i.e. dataset + fidelity +
/// cost model for TrainingEvaluator — means a cache state carried across
/// runs (checkpoint restore, shared backing stores) can never serve a reward
/// computed for different data or a different budget. The driver evaluates
/// misses itself and stores them here. NOT thread-safe by design: each agent
/// owns one (a global cache would defeat agent-specific seeds, as the paper
/// notes — that cross-tenant role is SharedEvalCache's).
class CachedEvaluator {
 public:
  /// `context_key` prefixes every key: the evaluator's context_key().
  explicit CachedEvaluator(std::string context_key) : context_key_(std::move(context_key)) {}

  /// Attach a telemetry sink (null to detach) counting hits/misses/inserts/
  /// erases across all caches sharing the sink.
  void set_telemetry(obs::Telemetry* telemetry);

  /// lookup() returns the cached result (marked cache_hit) or nullopt; insert() stores
  /// a dispatched miss, whose training may still be pending (a hit then
  /// shares its handle). erase() drops an entry whose evaluation ultimately
  /// failed (retry exhaustion), so a later regeneration re-evaluates instead
  /// of replaying a non-measurement — failed evals never poison the cache.
  [[nodiscard]] std::optional<EvalResult> lookup(const space::ArchEncoding& arch) const;
  void insert(const space::ArchEncoding& arch, const EvalResult& result) const;
  void erase(const space::ArchEncoding& arch) const;

  [[nodiscard]] std::size_t unique_archs() const noexcept { return cache_.size(); }
  /// The key prefix given at construction.
  [[nodiscard]] const std::string& context_key() const noexcept { return context_key_; }

  /// --- checkpoint/restore ---------------------------------------------------
  /// Serializable cache contents. Entries are sorted by architecture key so
  /// the exported form is canonical (the map's iteration order is not), and
  /// joined, so export waits for any training an entry still holds.
  struct State {
    std::vector<std::pair<std::string, EvalResult>> entries;
  };
  [[nodiscard]] State export_state() const;
  void import_state(const State& state);

 private:
  [[nodiscard]] std::string map_key(const space::ArchEncoding& arch) const;

  std::string context_key_;
  mutable std::unordered_map<std::string, EvalResult> cache_;
  obs::Counter* lookup_hits_ = nullptr;
  obs::Counter* lookup_misses_ = nullptr;
  obs::Counter* inserts_ = nullptr;
  obs::Counter* erases_counter_ = nullptr;
};

/// Task head implied by a dataset's metric (classification for ACC).
[[nodiscard]] space::TaskHead head_for(const data::Dataset& ds);

/// The model every evaluator trains for `arch`: built for `ds`'s input
/// widths and head_for(ds), its weights drawn from Rng(seed).
[[nodiscard]] nn::Graph build_for(const space::SearchSpace& space, const data::Dataset& ds,
                                  const space::ArchEncoding& arch, std::uint64_t seed);

/// Reward assigned to killed evaluations on `ds`: -1 for R2, 0 for accuracy.
/// fit_and_score floors every reward at it.
[[nodiscard]] float reward_floor(const data::Dataset& ds) noexcept;

/// Training rows one epoch at `fid` draws from `ds` (at least 1): the sample
/// count the cost model charges.
[[nodiscard]] std::size_t train_samples(const data::Dataset& ds, const FidelityConfig& fid);

/// The `ncnas_train_wall_ms` histogram of `telemetry`, which fit_and_score
/// observes; null without telemetry.
[[nodiscard]] obs::Histogram* train_wall_histogram(obs::Telemetry* telemetry);

/// One reward estimate (paper §3.3), as the flat evaluator and every ladder
/// rung run it. Fits `model` for `epochs` epochs with `fid`'s optimizer,
/// batch size and training subset, drawing from `rng`. Then scores it on
/// the leading `fid.valid_fraction` of the validation rows. The reward is
/// `reward_fn(metric, charged.params, charged.sim_duration)`, or the metric
/// when no function is set, floored at reward_floor(ds). With a
/// `train_wall_ms` histogram the routine times itself; it observes the time
/// when it trained (epochs > 0), so the histogram counts trainings. Without
/// one, the outcome's `train_wall_ms` stays 0. Thread-safe for distinct
/// models.
[[nodiscard]] TrainOutcome fit_and_score(nn::Graph& model, const data::Dataset& ds,
                                         const FidelityConfig& fid, std::size_t epochs,
                                         tensor::Rng rng, const RewardFn& reward_fn,
                                         const EvalResult& charged,
                                         obs::Histogram* train_wall_ms);

}  // namespace ncnas::exec
