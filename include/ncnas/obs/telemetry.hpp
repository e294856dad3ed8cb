// Telemetry — the bundle handed to the search stack via
// SearchConfig::telemetry: one MetricsRegistry, one event stream, and an
// optional structured Journal with an optional HealthWatchdog on top.
// A null pointer disables all instrumentation: no instrument, journal,
// profiler or exporter is touched, and search results are bit-identical. A
// live instance collects every signal for the whole run.
//
// Every search fact (an evaluation, a PPO update, an exchange, a fault, a
// checkpoint, a rung, a watchdog verdict) enters through emit() exactly once.
// emit() always folds the event into a RunSummary the bundle owns — the
// ncnas_*_total counters that have a journal event behind them are rendered
// from that fold — and, once enable_journal() was called, records it in the
// journal too. The Chrome trace is rendered from the recorded journal.
//
// The search driver emits its own facts (everything but the parameter
// server's exchanges and the watchdog's verdicts) through one helper that
// also folds them into a RunSummary of the run's own, with or without a
// bundle. SearchResult's counters and the /progress view are read from that
// fold, so they count each fact the same way as the counters here.
//
// Canonical metric names and the journal event schema emitted by the
// instrumented internals are documented in README.md §Observability.
#pragma once

#include <memory>
#include <mutex>
#include <ostream>

#include "ncnas/obs/exporter.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/metrics.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/obs/stopwatch.hpp"
#include "ncnas/obs/watchdog.hpp"

namespace ncnas::obs {

/// Plain-data capture of a Telemetry instance at one point in time; safe to
/// keep in a SearchResult after the registry itself is gone.
struct TelemetrySnapshot {
  MetricsSnapshot metrics;            ///< registry instruments + fold counters and histograms
  std::vector<JournalEvent> journal;  ///< empty when the journal is disabled
  ProfileSnapshot profile;            ///< empty when the profiler is disabled
};

class Telemetry {
 public:
  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Records one search fact: folds it into the run summary and, when the
  /// journal is enabled, appends it there (notifying subscribers). Thread-safe.
  void emit(JournalEventType type, double t, std::uint32_t agent = kNoAgent,
            std::vector<JournalField> payload = {});

  /// Opt into the structured journal. Idempotent; call before handing the
  /// bundle to a driver so the first events are recorded.
  Journal& enable_journal(std::size_t reserve = 1024) {
    if (!journal_) journal_ = std::make_unique<Journal>(reserve);
    return *journal_;
  }
  /// Null until enable_journal().
  [[nodiscard]] Journal* journal() noexcept { return journal_.get(); }
  [[nodiscard]] const Journal* journal() const noexcept { return journal_.get(); }

  /// Opt into health watching (enables the journal too). The watchdog
  /// subscribes to the journal and emits its verdicts back through emit().
  /// Idempotent; `cfg` applies on first call only.
  HealthWatchdog& enable_watchdog(WatchdogConfig cfg = {}) {
    if (!watchdog_) {
      Journal& journal = enable_journal();
      watchdog_ = std::make_unique<HealthWatchdog>(cfg, this);
      HealthWatchdog* w = watchdog_.get();
      journal.subscribe([w](const JournalEvent& e) { w->on_event(e); });
    }
    return *watchdog_;
  }
  [[nodiscard]] HealthWatchdog* watchdog() noexcept { return watchdog_.get(); }
  [[nodiscard]] const HealthWatchdog* watchdog() const noexcept { return watchdog_.get(); }

  /// Opt into the hierarchical scoped profiler. Idempotent. The profiler
  /// only records while a driver (or the caller, via ProfilerInstallGuard)
  /// has installed it as the process-wide sink.
  Profiler& enable_profiler() {
    if (!profiler_) profiler_ = std::make_unique<Profiler>();
    return *profiler_;
  }
  /// Null until enable_profiler(); the driver treats null as "off".
  [[nodiscard]] Profiler* profiler() noexcept { return profiler_.get(); }
  [[nodiscard]] const Profiler* profiler() const noexcept { return profiler_.get(); }

  /// Opt into the live telemetry plane (payloads rendered at each
  /// publication + optional /metrics HTTP endpoint + optional stream-flushed
  /// live journal). Idempotent; `cfg` applies on first call only. The driver
  /// publishes on its virtual clock at cfg.cadence_seconds; publication is
  /// read-only over snapshots, so enabling it leaves SearchResult
  /// bit-identical (Exporter tests prove it).
  Exporter& enable_exporter(ExporterConfig cfg = {}) {
    if (!exporter_) exporter_ = std::make_unique<Exporter>(std::move(cfg), *this);
    return *exporter_;
  }
  /// Null until enable_exporter(); the driver treats null as "off".
  [[nodiscard]] Exporter* exporter() noexcept { return exporter_.get(); }
  [[nodiscard]] const Exporter* exporter() const noexcept { return exporter_.get(); }

  /// The registry's instruments plus the fold's counters and ps_exchange
  /// histograms, each kind sorted by name.
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const;
  [[nodiscard]] TelemetrySnapshot snapshot() const;

  /// Chrome trace of the recorded journal; a disabled journal writes an
  /// empty (valid) trace document.
  void export_chrome_trace(std::ostream& os) const;
  /// Writes the journal JSONL; a disabled journal writes nothing.
  void export_journal_jsonl(std::ostream& os) const {
    if (journal_) journal_->export_jsonl(os);
  }
  /// Writes the flat-profile JSON document; a disabled profiler writes nothing.
  void export_profile_json(std::ostream& os) const {
    if (profiler_) profiler_->snapshot().export_json(os);
  }
  /// Writes the human-readable call tree + flat table; disabled -> nothing.
  void export_profile_text(std::ostream& os) const {
    if (profiler_) profiler_->snapshot().export_text(os);
  }

 private:
  MetricsRegistry metrics_;
  mutable std::mutex fold_mu_;  // guards fold_
  RunSummary fold_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<HealthWatchdog> watchdog_;
  std::unique_ptr<Profiler> profiler_;
  // Last member: the exporter references the others, so it must die first.
  std::unique_ptr<Exporter> exporter_;
};

}  // namespace ncnas::obs
