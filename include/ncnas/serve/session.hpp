// TenantSession — one tenant's search, executed as a sequence of
// quantum-bounded time slices under the SearchServer's scheduler.
//
// The session holds one live SearchDriver for the tenant's whole lifetime.
// A slice advances it to the next quantum boundary,
// ckpt::next_checkpoint_time(virtual_time, quantum), and the driver pauses
// right after the first completion at or past it: that is the preemption
// point. The next grant continues the same driver from there, so a sliced
// multi-tenant run returns exactly the standalone SearchResult.
//
// The driver also checkpoints every quantum into the tenant's state
// directory, so each pause leaves a snapshot a separate process could
// resume from. One journal-on obs::Telemetry records the whole search; the
// tenant's /tenants progress is the run's own event fold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ncnas/ckpt/checkpoint.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/telemetry.hpp"

namespace ncnas::serve {

/// Resource limits attached to a tenant at admission.
struct TenantQuota {
  /// Cap on concurrently held evaluation slots (0 = no cap). Grants are
  /// gangs of config.cluster.total_workers() slots, so admission rejects a
  /// spec whose gang could never fit under its own cap.
  std::size_t max_slots = 0;
  /// Total evaluation budget across the whole session (0 = unlimited).
  /// Enforced deterministically via SearchConfig::max_evaluations, so the
  /// budget stop lands on the same evaluation on every rerun.
  std::size_t eval_budget = 0;
};

struct TenantSpec {
  /// Identity used in metric labels and the /tenants endpoint. Must be
  /// non-empty and limited to [A-Za-z0-9_.:-] (no quoting/escaping needed
  /// anywhere it appears).
  std::string name;
  const space::SearchSpace* space = nullptr;
  const data::Dataset* dataset = nullptr;
  nas::SearchConfig config;
  /// DRR weight: long-run slice share is proportional to priority.
  double priority = 1.0;
  TenantQuota quota;
  /// Opt into the server's cross-tenant SharedEvalCache (result-affecting;
  /// see SearchConfig::shared_cache).
  bool use_shared_cache = true;
};

enum class TenantState : std::uint8_t {
  kQueued,     ///< admitted, not yet granted a first slice
  kRunning,    ///< holds a gang this round (transient within a round)
  kPreempted,  ///< paused at a quantum boundary, awaiting its next grant
  kFinished,   ///< search completed; result() is available
  kFailed,     ///< slice threw; error() has the reason
};

[[nodiscard]] const char* tenant_state_name(TenantState s);

/// What one time slice did.
enum class SliceOutcome : std::uint8_t {
  kExpired,    ///< quantum elapsed: the search paused
  kCompleted,  ///< search ran to its natural end inside the slice
  kFailed,     ///< the driver threw
};

class TenantSession {
 public:
  /// `spec.space` / `spec.dataset` / `shared_cache` / `pool` must outlive
  /// the session. `state_dir` is this tenant's private checkpoint directory.
  /// Throws std::invalid_argument on a config the driver rejects.
  TenantSession(std::uint32_t id, TenantSpec spec, double quantum_seconds,
                std::string state_dir, exec::SharedEvalCache* shared_cache,
                tensor::ThreadPool* pool);

  /// Runs one time slice: advances the search to the next quantum boundary.
  /// Returns what happened; kExpired counts as one preemption.
  SliceOutcome run_slice();

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return spec_.name; }
  [[nodiscard]] const TenantSpec& spec() const noexcept { return spec_; }
  /// Slots one grant occupies: the spec's cluster gang size.
  [[nodiscard]] std::size_t slot_request() const noexcept {
    return driver_.config().cluster.total_workers();
  }

  [[nodiscard]] TenantState state() const noexcept { return state_; }
  void set_state(TenantState s) noexcept { state_ = s; }
  [[nodiscard]] bool unfinished() const noexcept {
    return state_ != TenantState::kFinished && state_ != TenantState::kFailed;
  }

  [[nodiscard]] std::size_t slices() const noexcept { return slices_; }
  [[nodiscard]] std::size_t preemptions() const noexcept { return preemptions_; }
  /// The search's progress so far: its event fold (evals, cache and
  /// shared-cache hits, ladder_trainings — the rung-weighted cost the eval
  /// budget is charged in — and the best reward).
  [[nodiscard]] const obs::RunSummary& summary() const noexcept { return driver_.summary(); }
  /// Only valid in kFinished; throws std::logic_error otherwise.
  [[nodiscard]] const nas::SearchResult& result() const;
  /// Only non-empty in kFailed.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// The search's journal so far.
  [[nodiscard]] std::vector<obs::JournalEvent> journal() const;

 private:
  std::uint32_t id_;
  TenantSpec spec_;
  /// Snapshots every quantum, the pause points; keeps the newest two.
  ckpt::CheckpointConfig checkpoint_;
  obs::Telemetry telemetry_;
  /// spec.config with the quota, cache, tenant, checkpoint and telemetry
  /// wiring applied. Declared after what its config points at.
  nas::SearchDriver driver_;

  TenantState state_ = TenantState::kQueued;
  std::size_t slices_ = 0;
  std::size_t preemptions_ = 0;
  nas::SearchResult result_;
  std::string error_;
};

}  // namespace ncnas::serve
