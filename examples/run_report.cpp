// run_report — replays a structured journal (written by
// Telemetry::export_journal_jsonl or examples/telemetry_dump) into a
// terminal or markdown run report: reward trajectory, per-agent evaluation
// rates, cache hit ratio, PS exchange latency quantiles, and the
// HealthWatchdog's straggler/stall verdicts — the offline counterpart of
// eyeballing a Balsam job database after a Theta allocation.
//
//   ./examples/run_report <journal.jsonl>... [--md] [--profile <file>]
//
// A checkpointed run that was interrupted and resumed leaves one journal per
// process; pass them in process order and they are stitched with
// obs::merge_resumed_journal at each run_resumed watermark, so the report
// covers the whole lineage and marks the resume boundaries.
//
// With --profile (a profile JSON written by Telemetry::export_profile_json or
// examples/telemetry_dump) the report gains a Profile section: the flat
// profile's hottest scopes, a roofline view of the kernel scopes (GFLOP/s and
// arithmetic intensity from the per-kernel FLOP/byte counters), allocation
// accounting, and a reconciliation of the profiler's eval wall time against
// the journal's per-eval train_wall_ms sum.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "ncnas/analytics/report.hpp"
#include "ncnas/analytics/series.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/obs/watchdog.hpp"

namespace {

const char* strategy_label(int strategy) {
  if (strategy < 0 || strategy > static_cast<int>(ncnas::nas::SearchStrategy::kEvolution)) {
    return "?";
  }
  return ncnas::nas::strategy_name(static_cast<ncnas::nas::SearchStrategy>(strategy));
}

/// Bucket-quantile over raw samples via the shared histogram machinery.
double sample_quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto sample = ncnas::obs::make_histogram_sample(
      "q", ncnas::obs::exp_buckets(0.5, 2.0, 20), values);
  return sample.quantile(q);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ncnas;
  bool markdown = false;
  bool json = false;
  std::vector<std::string> paths;
  std::string profile_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--md") {
      markdown = true;
    } else if (arg == "--format") {
      if (i + 1 >= argc) {
        std::cerr << "--format needs 'json' or 'text'\n";
        return 2;
      }
      const std::string fmt = argv[++i];
      if (fmt == "json") {
        json = true;
      } else if (fmt != "text") {
        std::cerr << "--format must be 'json' or 'text'\n";
        return 2;
      }
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--format=text") {
      json = false;
    } else if (arg == "--profile") {
      if (i + 1 >= argc) {
        std::cerr << "--profile needs a file argument\n";
        return 2;
      }
      profile_path = argv[++i];
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: run_report <journal.jsonl>... [--md] [--format=json] "
                 "[--profile <file>]\n";
    return 2;
  }
  const std::string path = paths.front();

  std::vector<obs::JournalEvent> events;
  try {
    for (std::size_t j = 0; j < paths.size(); ++j) {
      std::ifstream in(paths[j]);
      if (!in) {
        std::cerr << "cannot open " << paths[j] << "\n";
        return 1;
      }
      std::vector<obs::JournalEvent> part = obs::Journal::import_jsonl(in);
      // The first journal stands alone; each later one opens with a
      // run_resumed event whose watermark stitches it onto the lineage.
      events = j == 0 ? std::move(part)
                      : obs::merge_resumed_journal(std::move(events), part);
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  const obs::RunSummary sum = obs::summarize_journal(events);

  // Machine-readable path: the same replay, one JSON object, nothing else on
  // stdout — what nas_top and external tooling consume.
  if (json) {
    obs::export_run_summary_json(sum, std::cout);
    return 0;
  }

  // Re-run the watchdog over the replayed events (report-only: no journal or
  // metrics sink), so a journal from an un-watched run still gets verdicts.
  obs::HealthWatchdog watchdog;
  for (const obs::JournalEvent& e : events) watchdog.on_event(e);
  const obs::WatchdogReport health = watchdog.report();

  std::ostream& os = std::cout;
  const char* h2 = markdown ? "## " : "== ";
  if (markdown) os << "# Run report: " << path << "\n\n";
  else os << "run report: " << path << "\n\n";

  os << h2 << "Run\n";
  os << "strategy: " << strategy_label(sum.strategy) << ", " << sum.agents_declared
     << " agents x " << sum.workers_per_agent << " workers\n";
  os << "span: " << analytics::fmt(sum.end_time_s / 60.0, 1) << " min of "
     << (sum.wall_time_s == std::numeric_limits<double>::infinity()
             ? std::string("?")
             : analytics::fmt(sum.wall_time_s / 60.0, 1))
     << " min budget" << (sum.converged ? " (converged early)" : "") << "\n";
  os << sum.evals << " evaluations (" << sum.real_evals << " real, " << sum.cache_hits
     << " cached, " << sum.timeouts << " timed out), " << sum.ppo_updates
     << " PPO updates, " << sum.ps_exchanges << " PS exchanges\n";
  const double hit_ratio =
      sum.evals > 0 ? static_cast<double>(sum.cache_hits) / static_cast<double>(sum.evals)
                    : 0.0;
  os << "cache hit ratio: " << analytics::fmt(100.0 * hit_ratio, 1) << "%\n";
  if (sum.shared_cache_hits > 0) {
    os << "shared eval cache: " << sum.shared_cache_hits
       << " hit(s) served from the cross-tenant store\n";
  }
  os << "best reward: " << analytics::fmt(sum.best_reward) << " at "
     << analytics::fmt(sum.best_reward_t / 60.0, 1) << " min\n";
  if (sum.checkpoints + sum.resumes > 0) {
    os << "checkpoints: " << sum.checkpoints << " snapshot(s) written, " << sum.resumes
       << " resume(s)";
    if (!sum.resume_times.empty()) {
      os << " — resumed at";
      for (const double t : sum.resume_times) os << ' ' << analytics::fmt(t / 60.0, 1) << " min";
    }
    os << "\n";
  }
  os << "\n";

  if (!sum.rewards.empty() && sum.end_time_s > 0.0) {
    os << h2 << "Reward trajectory\n";
    if (markdown) os << "```\n";
    const double bucket = std::max(sum.end_time_s / 60.0, 1.0);
    const auto mean = analytics::resample_mean(sum.rewards, sum.end_time_s, bucket, -1.0);
    analytics::print_sparkline(os, "mean reward ", mean, -1.0, 1.0);
    if (markdown) os << "```\n";
    os << "\n";
  }

  os << h2 << "Agents\n";
  analytics::Table agents({"agent", "evals", "cached", "timeouts", "ppo", "evals/min",
                           "best reward"});
  for (const auto& [id, a] : sum.per_agent) {
    agents.add_row({std::to_string(id), std::to_string(a.evals), std::to_string(a.cached),
                    std::to_string(a.timeouts), std::to_string(a.ppo_updates),
                    analytics::fmt(sum.agent_rate_per_min(id), 2),
                    analytics::fmt(a.best_reward)});
  }
  agents.print(os);
  if (!sum.converged_agents.empty()) {
    os << "converged agents (in order):";
    for (std::uint32_t id : sum.converged_agents) os << ' ' << id;
    os << "\n";
  }
  os << "\n";

  if (!sum.ps_wait_seconds.empty() || !sum.ps_staleness.empty()) {
    os << h2 << "Parameter server\n";
    if (!sum.ps_wait_seconds.empty()) {
      os << "sync barrier wait (s): p50 " << analytics::fmt(sample_quantile(sum.ps_wait_seconds, 0.50), 1)
         << ", p95 " << analytics::fmt(sample_quantile(sum.ps_wait_seconds, 0.95), 1) << " over "
         << sum.ps_wait_seconds.size() << " exchanges\n";
    }
    if (!sum.ps_staleness.empty()) {
      os << "async gradient staleness (updates): p50 "
         << analytics::fmt(sample_quantile(sum.ps_staleness, 0.50), 1) << ", p95 "
         << analytics::fmt(sample_quantile(sum.ps_staleness, 0.95), 1) << " over "
         << sum.ps_staleness.size() << " exchanges\n";
    }
    os << "\n";
  }

  if (sum.ladder_rung_events > 0) {
    // Rendered only for multi-fidelity runs; a flat journal keeps the flat
    // report layout.
    os << h2 << "Fidelity ladder\n";
    os << sum.ladder_trainings << " rung trainings (" << sum.ladder_warm_starts
       << " warm-started), " << sum.ladder_promotions << " promotions, "
       << sum.ladder_rung_hits << " rung-level shared-cache hits, " << sum.ladder_timeouts
       << " rung timeouts\n";
    analytics::Table rungs({"rung", "candidates", "survivors", "trainings", "warm",
                            "rung hits", "timeouts"});
    for (const auto& [rung, rt] : sum.ladder_rungs) {
      rungs.add_row({std::to_string(rung), std::to_string(rt.candidates),
                     std::to_string(rt.survivors), std::to_string(rt.trainings),
                     std::to_string(rt.warm_starts), std::to_string(rt.rung_hits),
                     std::to_string(rt.timeouts)});
    }
    rungs.print(os);
    os << "\n";
  }

  if (sum.faulty()) {
    // Rendered only for runs whose journal recorded injected faults or
    // recovery actions; a clean journal keeps the clean report layout.
    os << h2 << "Faults and recovery\n";
    os << sum.eval_failures << " failed dispatch attempts, " << sum.retries
       << " retried with backoff, " << sum.exhausted << " floored after retry budget, "
       << sum.lost_results << " results lost in flight\n";
    os << sum.crashed_workers << " worker(s) crashed, " << sum.dead_agents
       << " agent(s) lost their whole pool\n";
    os << "parameter server: " << sum.ps_dropped << " exchange(s) dropped, "
       << sum.ps_delayed << " delayed, " << sum.barrier_timeouts
       << " partial A2C round(s) forced by barrier timeout\n\n";
  }

  os << h2 << "Health\n";
  os << "expected eval duration: "
     << (health.expected_eval_seconds > 0.0
             ? analytics::fmt(health.expected_eval_seconds, 1) + " s"
             : std::string("warming up"))
     << " (" << health.evals_seen << " completed evals observed)\n";
  if (health.healthy()) {
    os << "verdict: healthy — no stragglers, no stalls\n";
  } else {
    os << "verdict: " << health.stragglers.size() << " straggler(s), "
       << health.stalls.size() << " stall(s)\n";
    for (const auto& v : health.stragglers) {
      os << "  straggler: agent " << v.agent << " at " << analytics::fmt(v.t / 60.0, 1)
         << " min, " << analytics::fmt(v.duration_s, 1) << " s vs expected "
         << analytics::fmt(v.expected_s, 1) << " s" << (v.timed_out ? " (timed out)" : "")
         << "\n";
    }
    for (const auto& v : health.stalls) {
      os << "  stall: agent " << v.agent << " silent " << analytics::fmt(v.silent_s, 1)
         << " s at " << analytics::fmt(v.t / 60.0, 1) << " min (window "
         << analytics::fmt(v.window_s, 1) << " s)\n";
    }
  }

  if (!profile_path.empty()) {
    std::ifstream pin(profile_path);
    if (!pin) {
      std::cerr << "cannot open profile " << profile_path << "\n";
      return 1;
    }
    obs::ImportedProfile prof;
    try {
      prof = obs::import_profile_json(pin);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }

    os << "\n" << h2 << "Profile\n";
    os << prof.flat.size() << " scopes over " << prof.threads_merged
       << " thread(s); hottest by self time:\n";
    analytics::Table hot({"scope", "calls", "total ms", "self ms"});
    std::size_t shown = 0;
    for (const obs::FlatProfileEntry& e : prof.flat) {
      if (shown++ >= 10) break;
      hot.add_row({e.name, std::to_string(e.calls), analytics::fmt(e.total_ms, 1),
                   analytics::fmt(e.self_ms, 1)});
    }
    hot.print(os);

    // Kernel scopes carry FLOP/byte counters, so they place themselves on a
    // roofline: achieved GFLOP/s against arithmetic intensity.
    analytics::Table roofline({"kernel", "GFLOP", "GFLOP/s", "flop/B"});
    std::size_t kernel_rows = 0;
    for (const obs::FlatProfileEntry& e : prof.flat) {
      if (e.flops == 0) continue;
      ++kernel_rows;
      roofline.add_row({e.name, analytics::fmt(static_cast<double>(e.flops) / 1e9, 2),
                        analytics::fmt(e.gflops(), 2),
                        analytics::fmt(e.arithmetic_intensity(), 2)});
    }
    if (kernel_rows > 0) {
      os << "\nroofline (kernel scopes with FLOP counters):\n";
      roofline.print(os);
    }

    std::uint64_t alloc_count = 0, alloc_bytes = 0;
    for (const obs::FlatProfileEntry& e : prof.flat) {
      alloc_count += e.alloc_count;
      alloc_bytes += e.alloc_bytes;
    }
    os << "\nallocations: " << alloc_count << " tensor buffer(s), "
       << analytics::fmt(static_cast<double>(alloc_bytes) / (1024.0 * 1024.0), 1)
       << " MiB total\n";

    // The eval/train + eval/validate scopes bracket the same region the
    // journal's train_wall_ms stopwatch measures.
    double profile_ms = 0.0;
    for (const obs::FlatProfileEntry& e : prof.flat) {
      if (e.name == "eval/train" || e.name == "eval/validate") profile_ms += e.total_ms;
    }
    double journal_ms = 0.0;
    for (const obs::JournalEvent& e : events) {
      if (e.type == obs::JournalEventType::kEvalFinished) {
        journal_ms += e.field("train_wall_ms");
      }
    }
    if (journal_ms > 0.0) {
      const double rel = std::abs(profile_ms - journal_ms) / journal_ms;
      os << "eval wall time: profiler " << analytics::fmt(profile_ms, 1) << " ms vs journal "
         << analytics::fmt(journal_ms, 1) << " ms (" << analytics::fmt(100.0 * rel, 1)
         << "% apart)\n";
    }
  }
  return 0;
}
