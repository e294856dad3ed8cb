#include "ncnas/obs/telemetry.hpp"

#include <algorithm>
#include <iterator>

namespace ncnas::obs {

namespace {

struct FoldCounter {
  const char* name;
  std::size_t RunSummary::*field;
};

// Every counter with an exact journal event behind it, rendered from the
// fold under its exported name.
constexpr FoldCounter kFoldCounters[] = {
    {"ncnas_a2c_barrier_timeouts_total", &RunSummary::barrier_timeouts},
    {"ncnas_cache_hits_total", &RunSummary::cache_hits},
    {"ncnas_checkpoints_total", &RunSummary::checkpoints},
    {"ncnas_eval_timeouts_total", &RunSummary::timeouts},
    {"ncnas_evals_total", &RunSummary::evals},
    {"ncnas_fault_dead_agents_total", &RunSummary::dead_agents},
    {"ncnas_fault_eval_failures_total", &RunSummary::eval_failures},
    {"ncnas_fault_exhausted_total", &RunSummary::exhausted},
    {"ncnas_fault_lost_results_total", &RunSummary::lost_results},
    {"ncnas_fault_ps_delayed_total", &RunSummary::ps_delayed},
    {"ncnas_fault_ps_dropped_total", &RunSummary::ps_dropped},
    {"ncnas_fault_retries_total", &RunSummary::retries},
    {"ncnas_fault_workers_crashed_total", &RunSummary::crashed_workers},
    {"ncnas_fidelity_promotions_total", &RunSummary::ladder_promotions},
    {"ncnas_fidelity_rung_hits_total", &RunSummary::ladder_rung_hits},
    {"ncnas_fidelity_rung_trainings_total", &RunSummary::ladder_trainings},
    {"ncnas_fidelity_warm_starts_total", &RunSummary::ladder_warm_starts},
    {"ncnas_ppo_updates_total", &RunSummary::ppo_updates},
    {"ncnas_ps_exchanges_total", &RunSummary::ps_exchanges},
    {"ncnas_real_evals_total", &RunSummary::real_evals},
    {"ncnas_shared_cache_hits_total", &RunSummary::shared_cache_hits},
    {"ncnas_watchdog_stalls_total", &RunSummary::stalls},
    {"ncnas_watchdog_stragglers_total", &RunSummary::stragglers},
};

std::vector<CounterSample> fold_counters(const RunSummary& sum) {
  std::vector<CounterSample> out;
  out.reserve(std::size(kFoldCounters));
  for (const FoldCounter& c : kFoldCounters) out.push_back({c.name, sum.*c.field});
  return out;
}

// The ps_exchange payloads as histograms: A2C barrier waits (virtual
// seconds) and A3C gradient staleness (PS updates that landed between an
// agent's pull and its submit; 0 = fresh parameters).
std::vector<HistogramSample> fold_histograms(const RunSummary& sum) {
  std::vector<HistogramSample> out;
  out.push_back(make_histogram_sample("ncnas_a2c_barrier_wait_seconds", exp_buckets(1.0, 2.0, 14),
                                      sum.ps_wait_seconds));
  out.push_back(make_histogram_sample("ncnas_a3c_gradient_staleness_updates",
                                      {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0},
                                      sum.ps_staleness));
  return out;
}

}  // namespace

void Telemetry::emit(JournalEventType type, double t, std::uint32_t agent,
                     std::vector<JournalField> payload) {
  JournalEvent e{type, t, agent, 0, std::move(payload)};
  {
    const std::scoped_lock lock(fold_mu_);
    fold_.apply(e);
  }
  // Outside the fold lock: subscribers (the watchdog) may emit re-entrantly.
  if (journal_) journal_->append(e.type, e.t, e.agent, std::move(e.payload));
}

MetricsSnapshot Telemetry::metrics_snapshot() const {
  MetricsSnapshot snap = metrics_.snapshot();
  std::vector<CounterSample> folded;
  std::vector<HistogramSample> histograms;
  {
    const std::scoped_lock lock(fold_mu_);
    folded = fold_counters(fold_);
    histograms = fold_histograms(fold_);
  }
  snap.counters.insert(snap.counters.end(), folded.begin(), folded.end());
  std::ranges::sort(snap.counters, {}, &CounterSample::name);
  std::ranges::move(histograms, std::back_inserter(snap.histograms));
  std::ranges::sort(snap.histograms, {}, &HistogramSample::name);
  return snap;
}

TelemetrySnapshot Telemetry::snapshot() const {
  return {metrics_snapshot(), journal_ ? journal_->snapshot() : std::vector<JournalEvent>{},
          profiler_ ? profiler_->snapshot() : ProfileSnapshot{}};
}

void Telemetry::export_chrome_trace(std::ostream& os) const {
  obs::export_chrome_trace(journal_ ? journal_->snapshot() : std::vector<JournalEvent>{}, os);
}

}  // namespace ncnas::obs
