#include "ncnas/obs/watchdog.hpp"

#include <algorithm>

#include "ncnas/obs/telemetry.hpp"

namespace ncnas::obs {

HealthWatchdog::HealthWatchdog(Telemetry* telemetry) : telemetry_(telemetry) {
  if (telemetry_ != nullptr) {
    expected_gauge_ = &telemetry_->metrics().gauge("ncnas_watchdog_expected_eval_seconds");
  }
}

double HealthWatchdog::expected_locked() const {
  if (duration_count_ < kMinSamples) return 0.0;
  return duration_sum_ / static_cast<double>(duration_count_);
}

void HealthWatchdog::on_event(const JournalEvent& e) {
  using T = JournalEventType;
  // Our own verdicts come back through the journal subscription; skipping
  // them before taking the lock also makes the nested dispatch re-entrant.
  if (e.type == T::kStragglerDetected || e.type == T::kAgentStalled) return;

  std::vector<StragglerVerdict> new_stragglers;
  std::vector<StallVerdict> new_stalls;
  double expected_now = 0.0;
  {
    const std::scoped_lock lock(mu_);
    now_ = std::max(now_, e.t);
    if (e.agent != kNoAgent) {
      AgentTrack& track = agents_[e.agent];
      track.last_active = std::max(track.last_active, e.t);
      track.stalled = false;  // activity clears a stall episode
    }

    if (e.type == T::kEvalFinished || e.type == T::kEvalTimeout) {
      const double duration = e.field("duration_s");
      const bool timed_out = e.type == T::kEvalTimeout || e.field("timed_out") != 0.0;
      const double expected = expected_locked();
      // A timeout is a straggler by definition (the paper's kill timer); a
      // regular completion is one when it blows the expectation multiple.
      // eval_timeout always follows eval_finished(timed_out=1) for the same
      // record, so only the timeout event is flagged to avoid double counts.
      if (e.type == T::kEvalTimeout) {
        new_stragglers.push_back({e.agent, e.t, duration, expected, true});
      } else if (!timed_out) {
        ++report_.evals_seen;
        if (expected > 0.0 && duration > kStragglerMultiple * expected) {
          new_stragglers.push_back({e.agent, e.t, duration, expected, false});
        }
        duration_sum_ += duration;
        ++duration_count_;
      }
      expected_now = expected_locked();
      report_.expected_eval_seconds = expected_now;
    }

    const double window = kStallMultiple * expected_locked();
    if (window > 0.0) {
      for (auto& [id, track] : agents_) {
        if (id == e.agent || track.stalled) continue;
        const double silent = now_ - track.last_active;
        if (silent > window) {
          track.stalled = true;
          new_stalls.push_back({id, now_, silent, window});
        }
      }
    }
    report_.stragglers.insert(report_.stragglers.end(), new_stragglers.begin(),
                              new_stragglers.end());
    report_.stalls.insert(report_.stalls.end(), new_stalls.begin(), new_stalls.end());
  }

  // Emission happens outside mu_ so a concurrent report() or another
  // subscriber can never deadlock against us.
  if (telemetry_ == nullptr) return;
  if (expected_now > 0.0) expected_gauge_->set(expected_now);
  for (const StragglerVerdict& v : new_stragglers) {
    telemetry_->emit(T::kStragglerDetected, v.t, v.agent,
                     {{"duration_s", v.duration_s},
                      {"expected_s", v.expected_s},
                      {"multiple", kStragglerMultiple},
                      {"timed_out", v.timed_out ? 1.0 : 0.0}});
  }
  for (const StallVerdict& v : new_stalls) {
    telemetry_->emit(T::kAgentStalled, v.t, v.agent,
                     {{"silent_s", v.silent_s}, {"window_s", v.window_s}});
  }
}

WatchdogReport HealthWatchdog::report() const {
  const std::scoped_lock lock(mu_);
  return report_;
}

}  // namespace ncnas::obs
