// HealthWatchdog — a Journal subscriber that watches per-agent progress and
// flags unhealthy runs, the in-process analogue of eyeballing Balsam job logs
// for stuck workers (the paper's 10-minute-timeout discipline):
//
//   straggler — a finished evaluation whose simulated duration exceeded
//   kStragglerMultiple x the expected task duration. The expectation is the
//   running mean of completed evaluations, once kMinSamples of them have
//   finished. Every eval_timeout is a straggler by definition: it blew the
//   paper's kill timer.
//
//   stall — an agent that stays silent (no journal event) while the rest of
//   the run advances past its last activity by more than kStallMultiple x
//   the expected duration.
//
// Verdicts go into the WatchdogReport (for tooling) and back into the event
// stream as straggler_detected / agent_stalled events through
// Telemetry::emit, so an exported journal carries its own health annotations
// and `ncnas_watchdog_stragglers_total` / `_stalls_total` count them. The
// same on_event() entry point serves live subscription and offline replay
// (run_report).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/metrics.hpp"

namespace ncnas::obs {

class Telemetry;  // telemetry.hpp includes this header; break the cycle

/// Finished evals slower than this multiple of the expected duration are
/// stragglers.
inline constexpr double kStragglerMultiple = 3.0;
/// Completed evaluations that calibrate the expectation before any flagging.
inline constexpr std::size_t kMinSamples = 8;
/// Agent silence window as a multiple of the expected duration.
inline constexpr double kStallMultiple = 20.0;

struct StragglerVerdict {
  std::uint32_t agent = kNoAgent;
  double t = 0.0;           ///< completion time of the flagged evaluation
  double duration_s = 0.0;  ///< its simulated duration
  double expected_s = 0.0;  ///< the expectation it was judged against
  bool timed_out = false;
};

struct StallVerdict {
  std::uint32_t agent = kNoAgent;
  double t = 0.0;         ///< when the stall was detected
  double silent_s = 0.0;  ///< how long the agent had been silent
  double window_s = 0.0;  ///< the window it exceeded
};

struct WatchdogReport {
  std::vector<StragglerVerdict> stragglers;
  std::vector<StallVerdict> stalls;
  double expected_eval_seconds = 0.0;  ///< current expectation (0 = warming up)
  std::uint64_t evals_seen = 0;
  [[nodiscard]] bool healthy() const { return stragglers.empty() && stalls.empty(); }
};

class HealthWatchdog {
 public:
  /// `telemetry` (optional, must outlive the watchdog) receives the verdict
  /// events and the expectation gauge. With null the watchdog only
  /// accumulates its report — the replay configuration run_report uses.
  explicit HealthWatchdog(Telemetry* telemetry = nullptr);
  HealthWatchdog(const HealthWatchdog&) = delete;
  HealthWatchdog& operator=(const HealthWatchdog&) = delete;

  /// Feed one event — as a Journal subscriber callback or an offline replay
  /// loop. Thread-safe; its own verdict events are ignored on re-entry.
  void on_event(const JournalEvent& e);

  [[nodiscard]] WatchdogReport report() const;

 private:
  [[nodiscard]] double expected_locked() const;

  Telemetry* telemetry_;
  Gauge* expected_gauge_ = nullptr;

  mutable std::mutex mu_;
  double now_ = 0.0;  ///< latest virtual timestamp seen
  double duration_sum_ = 0.0;
  std::uint64_t duration_count_ = 0;
  struct AgentTrack {
    double last_active = 0.0;
    bool stalled = false;
  };
  std::map<std::uint32_t, AgentTrack> agents_;
  WatchdogReport report_;
};

}  // namespace ncnas::obs
