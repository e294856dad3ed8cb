// Evaluator — the reward-estimation strategy (paper §3.3).
//
// TrainingEvaluator performs a genuine low-fidelity training of the generated
// architecture (configurable epochs and training-data fraction, agent-seeded
// weight init) and scores it on the validation split. The cost model decides
// the task's *simulated* duration; a task whose simulated duration exceeds
// the timeout is killed (reward floor) exactly as Balsam killed overlong jobs
// on Theta — we also skip the real training in that case.
//
// CachedEvaluator adds the paper's per-agent evaluation cache: re-generated
// architectures return their stored reward instantly (no worker task), which
// is the mechanism behind A3C's late-search utilization decay and the
// all-agents-converged stopping rule.
//
// Kernel policy: the training hot path (Trainer/Lstm/layers) runs on the
// process-wide tensor::KernelConfig (blocked kernels by default). Installing
// a pooled config before search() speeds up reward estimation without
// changing any reward bit — the kernels are bit-identical across thread
// counts by design, which is why KernelConfig stays out of
// config_fingerprint().
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "ncnas/data/dataset.hpp"
#include "ncnas/exec/cost_model.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/builder.hpp"
#include "ncnas/space/search_space.hpp"

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
};

class Evaluator {
 public:
  virtual ~Evaluator() = default;
  /// Estimates the reward of `arch`; `seed` is the agent-specific weight
  /// initialization seed (same arch + different seed may differ, per paper).
  [[nodiscard]] virtual EvalResult evaluate(const space::ArchEncoding& arch,
                                            std::uint64_t seed) const = 0;
  /// Canonical identity of everything besides (arch, seed) that determines
  /// this evaluator's results — dataset + fidelity + cost model for
  /// TrainingEvaluator (see exec::eval_context_key). Caches layered on top
  /// fold this into their keys so rewards can never leak between different
  /// data or budgets. Empty when the evaluator has no such identity.
  [[nodiscard]] virtual std::string context_key() const { return {}; }
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

class TrainingEvaluator final : public Evaluator {
 public:
  /// Both referents must outlive the evaluator.
  TrainingEvaluator(const space::SearchSpace& space, const data::Dataset& dataset,
                    FidelityConfig fidelity, CostModel cost);

  /// Installs a custom reward; pass nullptr to restore the plain metric.
  void set_reward_fn(RewardFn fn) { reward_fn_ = std::move(fn); }

  /// Attach a telemetry sink (null to detach). evaluate() then records real
  /// training wall time and training/timeout counts; the registry is
  /// thread-safe, so pool-parallel evaluations share one sink.
  void set_telemetry(obs::Telemetry* telemetry);

  [[nodiscard]] EvalResult evaluate(const space::ArchEncoding& arch,
                                    std::uint64_t seed) const override;

  /// eval_context_key(dataset, fidelity, cost_model) — the full recipe that
  /// determines a reward besides (arch, seed).
  [[nodiscard]] std::string context_key() const override;

  /// Builds the model for `arch` without training (used for post-training).
  [[nodiscard]] nn::Graph build(const space::ArchEncoding& arch, std::uint64_t seed) const;

  [[nodiscard]] const data::Dataset& dataset() const noexcept { return *dataset_; }
  [[nodiscard]] const space::SearchSpace& space() const noexcept { return *space_; }
  [[nodiscard]] const FidelityConfig& fidelity() const noexcept { return fidelity_; }
  [[nodiscard]] const CostModel& cost_model() const noexcept { return cost_; }

  /// Reward assigned to killed evaluations: -1 for R2, 0 for accuracy.
  [[nodiscard]] float reward_floor() const noexcept;

 private:
  const space::SearchSpace* space_;
  const data::Dataset* dataset_;
  FidelityConfig fidelity_;
  CostModel cost_;
  RewardFn reward_fn_;
  obs::Histogram* train_wall_ms_ = nullptr;
  obs::Counter* trainings_ = nullptr;
  obs::Counter* training_timeouts_ = nullptr;
};

/// Per-agent cache keyed by (evaluation context, architecture encoding). The
/// context prefix — the inner evaluator's context_key(), i.e. dataset +
/// fidelity + cost model for TrainingEvaluator — means a cache state carried
/// across runs (checkpoint restore, shared backing stores) can never serve a
/// reward computed for different data or a different budget. NOT thread-safe
/// by design: each agent owns one (a global cache would defeat agent-specific
/// seeds, as the paper notes — that cross-tenant role is SharedEvalCache's).
class CachedEvaluator final : public Evaluator {
 public:
  /// `inner` must outlive the cache. The cache key context is taken from
  /// `inner.context_key()`.
  explicit CachedEvaluator(const Evaluator& inner)
      : inner_(&inner), context_key_(inner.context_key()) {}

  /// Attach a telemetry sink (null to detach) counting hits/misses/inserts/
  /// erases across all caches sharing the sink.
  void set_telemetry(obs::Telemetry* telemetry);

  [[nodiscard]] EvalResult evaluate(const space::ArchEncoding& arch,
                                    std::uint64_t seed) const override;

  /// Split-phase access for drivers that batch cache misses onto a thread
  /// pool: lookup() returns the cached result (marked cache_hit) or nullopt;
  /// insert() stores a freshly computed miss. erase() drops an entry whose
  /// evaluation ultimately failed (retry exhaustion), so a later
  /// regeneration re-evaluates instead of replaying a non-measurement —
  /// failed evals never poison the cache.
  [[nodiscard]] std::optional<EvalResult> lookup(const space::ArchEncoding& arch) const;
  void insert(const space::ArchEncoding& arch, const EvalResult& result) const;
  void erase(const space::ArchEncoding& arch) const;

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t erases() const noexcept { return erases_; }
  [[nodiscard]] std::size_t unique_archs() const noexcept { return cache_.size(); }
  /// The inner evaluator's context at construction time (key prefix).
  [[nodiscard]] std::string context_key() const override { return context_key_; }
  void clear();

  /// --- checkpoint/restore ---------------------------------------------------
  /// Serializable cache contents. Entries are sorted by architecture key so
  /// the exported form is canonical (the map's iteration order is not).
  struct State {
    std::vector<std::pair<std::string, EvalResult>> entries;
    std::size_t hits = 0;
    std::size_t misses = 0;
  };
  [[nodiscard]] State export_state() const;
  void import_state(const State& state);

 private:
  [[nodiscard]] std::string map_key(const space::ArchEncoding& arch) const;

  const Evaluator* inner_;
  std::string context_key_;
  mutable std::unordered_map<std::string, EvalResult> cache_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
  mutable std::size_t erases_ = 0;
  obs::Counter* lookup_hits_ = nullptr;
  obs::Counter* lookup_misses_ = nullptr;
  obs::Counter* inserts_ = nullptr;
  obs::Counter* erases_counter_ = nullptr;
};

/// Task head implied by a dataset's metric (classification for ACC).
[[nodiscard]] space::TaskHead head_for(const data::Dataset& ds);

}  // namespace ncnas::exec
