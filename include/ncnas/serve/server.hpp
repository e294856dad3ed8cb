// SearchServer — NAS-as-a-service: one long-lived process hosting many
// concurrent tenant searches over a single shared evaluation-slot pool.
//
// The server loop is round-based on the virtual clock: each round the
// DrrScheduler hands out gang grants, every granted tenant runs exactly one
// quantum-bounded time slice (its live search pauses when the quantum
// expires — see session.hpp), the slots come back, and the observability
// plane is refreshed (per-tenant `ncnas_tenant_*` metrics, the /tenants
// JSON endpoint, one exporter publication at `rounds x quantum` virtual
// seconds).
// Slices execute sequentially in grant order, so the whole multi-tenant
// schedule — including every cross-tenant SharedEvalCache interaction — is
// a pure function of the submission sequence: reruns are bit-identical.
//
// Admission control is explicit backpressure: submit() throws
// AdmissionError when the server is at max_tenants (retry after a tenant
// finishes) or when a spec's gang/quota could never be scheduled, and the
// rejection is counted in `ncnas_server_rejections_total`.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ncnas/serve/scheduler.hpp"
#include "ncnas/serve/session.hpp"

namespace ncnas::serve {

struct ServeConfig {
  /// The shared evaluation-slot pool all tenants compete for.
  std::size_t total_slots = 0;
  /// Virtual seconds per time slice, and the tenants' checkpoint interval.
  /// Smaller quanta preempt faster but write more snapshots.
  double quantum_seconds = 1800.0;
  /// Admission cap on concurrently hosted unfinished tenants.
  std::size_t max_tenants = 8;
  /// Root directory for per-tenant checkpoint state (tenant-<id>/ under it).
  std::string state_dir;
  /// Optional process-wide cross-tenant evaluation cache (not owned).
  /// Tenants opt in per-spec; null disables sharing entirely.
  exec::SharedEvalCache* shared_cache = nullptr;
  /// Optional server-level telemetry (not owned): receives the per-tenant
  /// labeled metrics, and — when its exporter is enabled — the /tenants
  /// endpoint and per-round publications. Distinct from the journal-on
  /// telemetry each session keeps for its own search.
  obs::Telemetry* telemetry = nullptr;
  /// Optional thread pool shared by all tenants' real trainings.
  tensor::ThreadPool* pool = nullptr;
};

/// submit() refused the spec: server full (backpressure — retry later) or
/// the spec can never be scheduled (bad gang size, quota, or name).
class AdmissionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SearchServer {
 public:
  /// Throws std::invalid_argument on a zero pool, non-positive quantum,
  /// zero max_tenants, or empty state_dir.
  explicit SearchServer(ServeConfig config);

  /// Admits a tenant and returns its id (stable for the server's lifetime).
  /// Throws AdmissionError when the server is at capacity or the spec is
  /// unschedulable (a config the driver rejects included); every rejection
  /// is counted.
  std::uint32_t submit(TenantSpec spec);

  /// Runs one scheduling round: DRR grants, one slice per granted tenant
  /// (sequential, in grant order), slot release, observability refresh.
  /// Returns true while any tenant is still unfinished.
  bool step();

  /// Rounds until every tenant is finished or failed.
  void run();

  [[nodiscard]] TenantState state(std::uint32_t id) const;
  /// The finished tenant's SearchResult; throws std::logic_error otherwise.
  [[nodiscard]] const nas::SearchResult& result(std::uint32_t id) const;
  /// The tenant's journal so far.
  [[nodiscard]] std::vector<obs::JournalEvent> journal(std::uint32_t id) const;
  [[nodiscard]] const TenantSession& session(std::uint32_t id) const;

  /// The /tenants endpoint body: a JSON document with server totals and one
  /// object per tenant (id, name, state, priority, slots, slices,
  /// preemptions, grants, evals, cache/shared-cache hits, best reward).
  [[nodiscard]] std::string tenants_json() const;

  [[nodiscard]] std::size_t rounds() const noexcept { return scheduler_.rounds(); }
  /// The server's global virtual clock: completed rounds x quantum.
  [[nodiscard]] double virtual_time() const noexcept {
    return static_cast<double>(rounds()) * config_.quantum_seconds;
  }
  [[nodiscard]] std::size_t tenant_count() const noexcept { return sessions_.size(); }
  [[nodiscard]] std::size_t active_tenants() const noexcept;
  [[nodiscard]] std::size_t rejections() const noexcept { return rejections_; }
  [[nodiscard]] const DrrScheduler& scheduler() const noexcept { return scheduler_; }
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] TenantSession& session_ref(std::uint32_t id);
  [[nodiscard]] const TenantSession& session_ref(std::uint32_t id) const;
  void refresh_observability();
  void bump_counter(const std::string& name, const std::string& tenant, std::uint64_t target);

  ServeConfig config_;
  DrrScheduler scheduler_;
  std::vector<std::unique_ptr<TenantSession>> sessions_;  ///< index = id - 1
  std::size_t rejections_ = 0;
  /// Last value pushed into each monotonic labeled counter, so refreshes
  /// emit exact deltas.
  std::map<std::string, std::uint64_t> counter_marks_;
};

}  // namespace ncnas::serve
