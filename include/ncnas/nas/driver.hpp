// SearchDriver — the scalable NAS run: N agents x M workers on a virtual
// clock, reproducing the paper's Theta deployments without the Theta.
//
// Each agent owns a Controller replica, an agent-specific seed, and a private
// evaluation cache. A cycle: pull parameters from the PS (A3C/A2C), sample M
// architectures, dispatch the non-cached ones onto the agent's dedicated
// worker nodes (the virtual clock advances by the cost model's task
// durations; the real trainings run on the host thread pool and overlap
// across agents), run local PPO epochs once the batch's rewards exist (on
// the pool too, so agents' updates overlap as on the paper's nodes),
// harvest the batch when its last task completes, joining its rewards and
// its update, and exchange deltas through the ParameterServer —
// synchronously (A2C barrier) or asynchronously (A3C). RDM skips all RL
// machinery but keeps the identical evaluation pipeline, as in the paper.
//
// The run ends at the simulated wall-time limit or earlier when every agent
// keeps regenerating cached architectures (the paper's convergence stop on
// Combo and NT3).
#pragma once

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ncnas/ckpt/checkpoint.hpp"
#include "ncnas/exec/evaluator.hpp"
#include "ncnas/exec/fault.hpp"
#include "ncnas/exec/fidelity_ladder.hpp"
#include "ncnas/exec/shared_cache.hpp"
#include "ncnas/nas/parameter_server.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/rl/controller.hpp"
#include "ncnas/tensor/thread_pool.hpp"

namespace ncnas::nas {

enum class SearchStrategy {
  kA3C,
  kA2C,
  kRandom,
  /// Island-model aging evolution (Real et al., the paper's future-work
  /// comparison point): each agent keeps an independent population, samples
  /// parents by tournament, and mutates one decision per child. Uses the
  /// identical evaluation pipeline, cluster layout, and caches as the RL
  /// strategies, so trajectories are directly comparable.
  kEvolution,
};

[[nodiscard]] const char* strategy_name(SearchStrategy s);

struct EvolutionConfig {
  std::size_t population = 64;   ///< aging window per agent (FIFO)
  std::size_t tournament = 8;    ///< sample size for parent selection
};

struct ClusterConfig {
  std::size_t num_agents = 21;       ///< the paper's 256-node layout
  std::size_t workers_per_agent = 11;

  [[nodiscard]] std::size_t total_workers() const { return num_agents * workers_per_agent; }
  /// Agents + workers + 1 Balsam node, the paper's accounting.
  [[nodiscard]] std::size_t total_nodes() const {
    return num_agents * (1 + workers_per_agent) + 1;
  }
};

/// Simulated seconds for the PPO update + PS round trip between an agent's
/// cycles.
inline constexpr double kAgentOverheadSeconds = 2.0;
/// Consecutive fully-cached cycles after which an agent has converged.
inline constexpr std::size_t kConvergenceStreak = 5;

struct SearchConfig {
  SearchStrategy strategy = SearchStrategy::kA3C;
  ClusterConfig cluster;
  double wall_time_seconds = 6.0 * 3600.0;  ///< the paper's 6-hour allocations
  exec::FidelityConfig fidelity;
  /// Opt-in successive-halving fidelity ladder (>= 2 rungs enables it; the
  /// default — no rungs — keeps the flat evaluator and every existing result
  /// bit). When enabled it REPLACES `fidelity`: candidates train at
  /// `ladder.rungs` with promotion + weight inheritance, and each record's
  /// reward is its highest-rung signal. Result-affecting, so an enabled
  /// ladder is covered by config_fingerprint() (like a non-empty fault
  /// plan); `max_evaluations` then counts rung trainings, not records —
  /// the rung-weighted cost that serve quotas meter.
  exec::LadderConfig ladder;
  exec::CostModel cost;
  rl::PpoConfig ppo;
  std::uint64_t seed = 42;
  /// Architectures generated per agent cycle; 0 means workers_per_agent.
  std::size_t batch_per_agent = 0;
  /// Hard cap on evaluations (0 = none); a safety valve for tests.
  std::size_t max_evaluations = 0;
  /// A3C recent-gradient averaging window (1 = apply each delta directly).
  std::size_t async_window = 1;
  /// Per-agent evaluation cache (paper default: on). Disabling it is the
  /// ablation for the cache-induced utilization decay and convergence stop.
  bool use_cache = true;
  /// Settings for SearchStrategy::kEvolution.
  EvolutionConfig evolution;
  /// Optional telemetry sink (not owned; must outlive the driver). Null
  /// disables all instrumentation — zero overhead, bit-identical results.
  /// Deliberately excluded from config_fingerprint(): observing a search
  /// never changes it.
  obs::Telemetry* telemetry = nullptr;
  /// Optional deterministic fault plan (not owned; must outlive the driver).
  /// Null — or an injector built from an empty plan — leaves the driver on
  /// its fault-free path with bit-identical results. A non-empty plan IS
  /// covered by config_fingerprint(), because faults change the search.
  const exec::FaultInjector* faults = nullptr;
  /// Optional checkpoint policy (not owned; must outlive the driver). Null
  /// disables snapshotting entirely — zero overhead, bit-identical results.
  /// Like telemetry — and unlike a non-empty fault plan — it is excluded
  /// from config_fingerprint(): saving a search never changes it, and a
  /// snapshot must be resumable under a config that differs only in where
  /// (or whether) it keeps checkpointing.
  const ckpt::CheckpointConfig* checkpoint = nullptr;
  /// Optional process-wide cross-tenant evaluation cache (not owned; must
  /// outlive the driver). Null keeps the classic single-search behaviour.
  /// Attaching it IS result-affecting — an architecture another tenant (or
  /// an earlier cycle of this one, via a different agent) already trained is
  /// served from the shared store, skipping training and worker occupancy —
  /// so a non-null pointer is covered by config_fingerprint(), like a
  /// non-empty fault plan and unlike telemetry/checkpoint.
  exec::SharedEvalCache* shared_cache = nullptr;
  /// Identity used for shared-cache ownership/accounting (which tenant
  /// trained an entry, per-tenant hit/miss stats). Accounting only — never
  /// part of cache keys or config_fingerprint().
  std::uint32_t tenant_id = 0;
  // Note: the tensor kernel policy is compile-time (tensor::KernelConfig),
  // not a SearchConfig field; the blocked kernels are bit-identical to the
  // serial reference, so there is nothing for config_fingerprint() to hash.
};

/// One completed reward estimation, stamped with its virtual completion time.
struct EvalRecord {
  double time = 0.0;           ///< simulated seconds since search start
  float reward = 0.0f;
  std::size_t params = 0;
  double sim_duration = 0.0;
  bool cache_hit = false;
  /// True when the result came from the process-wide SharedEvalCache —
  /// possibly trained by another tenant (implies cache_hit).
  bool shared_hit = false;
  bool timed_out = false;
  /// True when every dispatch attempt failed (retry budget spent or no live
  /// worker left): the reward is the evaluator's floor, not a measurement.
  bool failed = false;
  std::size_t agent = 0;
  /// Dispatch attempts behind this record (1 on the fault-free path).
  std::size_t attempts = 1;
  /// Highest fidelity rung the evaluation reached (0 on flat runs and for
  /// candidates eliminated at the bottom rung).
  std::uint32_t rung = 0;
  space::ArchEncoding arch;
  /// The training whose reward this record reports while the record is in
  /// flight (exec::EvalResult::training); the driver joins it at harvest.
  /// Always empty in a returned SearchResult.
  std::shared_future<exec::TrainOutcome> training;
};

struct SearchResult {
  std::vector<EvalRecord> evals;   ///< ordered by completion time
  double end_time = 0.0;           ///< when the search stopped (virtual s)
  bool converged_early = false;
  // Counts over `evals` (records past the deadline are already dropped).
  std::size_t cache_hits = 0;
  /// Subset of cache_hits served from SearchConfig::shared_cache (0 when no
  /// shared cache is attached).
  std::size_t shared_cache_hits = 0;
  std::size_t timeouts = 0;
  std::size_t unique_archs = 0;
  std::size_t ppo_updates = 0;
  // Fault-injection and recovery accounting (all zero on a fault-free run).
  // Counted at the moment the fault is handled, with no deadline filter, so
  // they reconcile 1:1 with the journal's fault events.
  std::size_t retries = 0;          ///< failed attempts re-dispatched with backoff
  std::size_t exhausted = 0;        ///< records floored after the retry budget
  std::size_t lost_results = 0;     ///< completed tasks whose result was dropped
  std::size_t crashed_workers = 0;  ///< workers lost to the fault plan
  std::size_t dead_agents = 0;      ///< agents that lost every worker
  // Checkpoint/restore accounting (both zero without a checkpoint policy).
  // checkpoints_written is run-cumulative, so an interrupted-then-resumed
  // run reports the same count as the uninterrupted one; resumes is the one
  // field that legitimately differs (0 uninterrupted, +1 per resume).
  std::size_t checkpoints_written = 0;  ///< snapshots made durable
  std::size_t resumes = 0;              ///< process restarts behind this result
  // Fidelity-ladder accounting (all zero on flat runs). Counted when the
  // ladder batch is dispatched, with no deadline filter, so they reconcile
  // 1:1 with the journal's ladder_rung events.
  std::size_t ladder_trainings = 0;    ///< rung trainings run (budget units)
  std::size_t ladder_promotions = 0;   ///< candidates promoted to a higher rung
  std::size_t ladder_warm_starts = 0;  ///< trainings resumed from inherited weights
  std::size_t ladder_rung_hits = 0;    ///< shared-cache hits at rung contexts
  std::vector<double> utilization;     ///< per-minute worker utilization
  double utilization_bucket = 60.0;
  /// Whether the run was instrumented (recorded in saved logs so replayed
  /// analyses stay comparable across versions).
  bool telemetry_enabled = false;
  /// End-of-run capture of SearchConfig::telemetry; null when disabled.
  std::shared_ptr<const obs::TelemetrySnapshot> telemetry;

  /// Best reward seen up to each eval (handy for trajectory plots).
  [[nodiscard]] std::vector<std::pair<double, float>> best_so_far() const;
  /// Top-k *unique* architectures by estimated reward (the paper's top-50
  /// selection for post-training). Excludes timed-out and retry-exhausted
  /// (floored) evaluations — neither reward is a measurement.
  [[nodiscard]] std::vector<EvalRecord> top_k(std::size_t k) const;
};

/// Cross-checks a result against the replay of its journal (or journal
/// lineage): eval count, best reward, cache/shared/timeout counts, PPO
/// updates, the fault, checkpoint and resume counters, and the ladder
/// counters. Returns one human-readable line per mismatch; empty = the two
/// artifacts tell the same story.
[[nodiscard]] std::vector<std::string> reconcile(const SearchResult& result,
                                                 const obs::RunSummary& sum);

class SearchRun;

/// One search, driven to its end by run() or in pieces by advance(). A
/// paused search keeps all of its state in the driver, so advance() calls at
/// any times, followed by run(), return the result run() alone returns, bit
/// for bit. Trainings and updates a pause leaves in flight keep running on
/// the pool.
class SearchDriver {
 public:
  /// `space` and `dataset` must outlive the driver. `pool` (optional) runs
  /// the real trainings behind the simulated tasks and the agents' PPO
  /// updates, so they overlap across agents; without one each training and
  /// update runs inline at dispatch.
  SearchDriver(const space::SearchSpace& space, const data::Dataset& dataset,
               SearchConfig config, tensor::ThreadPool* pool = nullptr);
  ~SearchDriver();

  /// Runs the search until it has harvested the first batch completing at
  /// or after virtual time `until`, with that completion's snapshot and
  /// exporter publication, and pauses there (returns false); or until the search
  /// ends first (returns true). Pausing at the checkpoint boundaries,
  /// ckpt::next_checkpoint_time(virtual_time(), interval), pauses exactly
  /// where the snapshots are written.
  bool advance(double until);
  /// Runs the search to its end, from the start or from a pause. Throws
  /// std::logic_error once run() has returned, for this and advance().
  [[nodiscard]] SearchResult run();

  /// Virtual time of the last harvested completion; 0 before the first
  /// and once run() has returned.
  [[nodiscard]] double virtual_time() const noexcept;
  /// The run's event fold, live: every count SearchResult and /progress
  /// read. Empty before the first advance(); the final counts after run().
  [[nodiscard]] const obs::RunSummary& summary() const noexcept;

  [[nodiscard]] const SearchConfig& config() const noexcept { return config_; }

 private:
  /// The run, bootstrapped on first use. Throws once run() has returned.
  SearchRun& live();

  const space::SearchSpace* space_;
  const data::Dataset* dataset_;
  SearchConfig config_;
  tensor::ThreadPool* pool_;
  std::unique_ptr<SearchRun> run_;
  /// The finished run's fold; has_run_finished marks a spent driver.
  obs::RunSummary finished_;
};

/// Resumes a search from a snapshot written under SearchConfig::checkpoint.
/// `config` must describe the same search (config_fingerprint over
/// `space.name()` is validated against the snapshot; telemetry/checkpoint
/// wiring may differ). Restores the full driver state and runs to
/// completion: the returned SearchResult is bit-identical to the
/// uninterrupted run's, except `resumes` (incremented) — and, when a
/// journal is attached, the new journal opens with a run_resumed event so
/// obs::merge_resumed_journal can stitch it onto the interrupted journal.
/// Throws ckpt::SnapshotError on a corrupt, truncated, or mismatched
/// snapshot — bad state is never silently loaded.
[[nodiscard]] SearchResult resume_search(const std::string& snapshot_path,
                                         const space::SearchSpace& space,
                                         const data::Dataset& dataset, SearchConfig config,
                                         tensor::ThreadPool* pool = nullptr);

}  // namespace ncnas::nas
