// run_report — the offline reader of a search's artifacts, the counterpart
// of eyeballing a Balsam job database after a Theta allocation. It replays
// structured journals (written by Telemetry::export_journal_jsonl or
// examples/telemetry_dump) into a terminal or markdown run report: reward
// trajectory, per-agent evaluation rates, cache hit ratio, PS exchange
// latency quantiles, and the HealthWatchdog's straggler/stall verdicts.
//
//   ./examples/run_report [<journal.jsonl>...] [--result <log> <space>]
//                         [--profile <file>] [--md] [--format=json]
//
// A checkpointed run that was interrupted and resumed leaves one journal per
// process; pass them in process order and obs::read_journal_lineage stitches
// them at each run_resumed watermark, so the report covers the whole lineage
// and marks the resume boundaries.
//
// With --result the report also reads a search log (from nas_logs/, written
// by any bench or by nas::save_result; its own fingerprint is accepted) over
// the named search space: its counters, reward and utilization sparklines,
// top-5 architectures, and the controller's late-search decision histogram.
// The log needs no journal. Given journals too, nas::reconcile cross-checks
// them against the log (eval count, best reward, cache, shared and timeout
// counts, fault, checkpoint and ladder counters); a divergence means the
// artifacts are not one run, or the lineage misses a process (exit 1).
//
// With --profile (a profile JSON written by Telemetry::export_profile_json or
// examples/telemetry_dump; needs a journal) the report gains a Profile
// section: the flat profile's hottest scopes, a roofline view of the kernel
// scopes (GFLOP/s and arithmetic intensity from the per-kernel FLOP/byte
// counters), allocation accounting, and obs::eval_wall_gap between the
// profiler's eval wall time and the journal's per-eval train_wall_ms sum. A
// gap above 25% exits 1 unless the run converged early: the batches still in
// flight when it stopped were trained but never harvested, so no
// eval_finished carries their time.
//
// --format=json prints one JSON object and nothing else on stdout, for
// nas_top and external tooling: the journal replay
// (obs::export_run_summary_json), or with --result the log's counters, top-5
// and utilization, with the replay under "journal_summary", the cross-check
// verdicts and the eval wall gap beside them. Exit codes match the text
// report.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "ncnas/analytics/arch_stats.hpp"
#include "ncnas/analytics/report.hpp"
#include "ncnas/analytics/series.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/obs/watchdog.hpp"
#include "ncnas/space/spaces.hpp"

namespace {

using namespace ncnas;

/// Above this eval wall gap the profile and the journal are not one run.
constexpr double kMaxEvalWallGap = 0.25;

const char* strategy_label(int strategy) {
  if (strategy < 0 || strategy > static_cast<int>(nas::SearchStrategy::kEvolution)) {
    return "?";
  }
  return nas::strategy_name(static_cast<nas::SearchStrategy>(strategy));
}

const char* h2(bool markdown) { return markdown ? "## " : "== "; }

/// Bucket-quantile over raw samples via the shared histogram machinery.
double sample_quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto sample = obs::make_histogram_sample("q", obs::exp_buckets(0.5, 2.0, 20), values);
  return sample.quantile(q);
}

/// The journal replay's sections: run, reward trajectory, agents, parameter
/// server, fidelity ladder, faults, and the watchdog's health verdicts.
void print_journal_report(std::ostream& os, bool markdown, const obs::RunSummary& sum,
                          const std::vector<obs::JournalEvent>& events) {
  // Re-run the watchdog over the replayed events (report-only: no journal or
  // metrics sink), so a journal from an un-watched run still gets verdicts.
  obs::HealthWatchdog watchdog;
  for (const obs::JournalEvent& e : events) watchdog.on_event(e);
  const obs::WatchdogReport health = watchdog.report();

  os << h2(markdown) << "Run\n";
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
    os << h2(markdown) << "Reward trajectory\n";
    if (markdown) os << "```\n";
    analytics::print_sparkline(os, "mean reward ",
                               analytics::reward_trajectory(sum.rewards, sum.end_time_s), -1.0,
                               1.0);
    if (markdown) os << "```\n";
    os << "\n";
  }

  os << h2(markdown) << "Agents\n";
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
    os << h2(markdown) << "Parameter server\n";
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
    os << h2(markdown) << "Fidelity ladder\n";
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
    os << h2(markdown) << "Faults and recovery\n";
    os << sum.eval_failures << " failed dispatch attempts, " << sum.retries
       << " retried with backoff, " << sum.exhausted << " floored after retry budget, "
       << sum.lost_results << " results lost in flight\n";
    os << sum.crashed_workers << " worker(s) crashed, " << sum.dead_agents
       << " agent(s) lost their whole pool\n";
    os << "parameter server: " << sum.ps_dropped << " exchange(s) dropped, "
       << sum.ps_delayed << " delayed, " << sum.barrier_timeouts
       << " partial A2C round(s) forced by barrier timeout\n\n";
  }

  os << h2(markdown) << "Health\n";
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
}

/// The search log's own account: counters, reward and utilization
/// sparklines, top-5 architectures, and the late-search decision histogram.
void print_result_report(std::ostream& os, bool markdown, const std::string& path,
                         const std::string& fingerprint, const nas::SearchResult& res,
                         const space::SearchSpace& sp) {
  os << h2(markdown) << "Result log\n";
  os << "log: " << path << "\nconfig: " << fingerprint << "\n";
  os << res.evals.size() << " evaluations (" << res.cache_hits << " cached, " << res.timeouts
     << " timed out), " << res.unique_archs << " unique architectures, " << res.ppo_updates
     << " PPO updates\n";
  if (res.shared_cache_hits > 0) {
    os << "shared eval cache: " << res.shared_cache_hits
       << " hit(s) served from the cross-tenant store\n";
  }
  os << "search span: " << analytics::fmt(res.end_time / 60.0, 1) << " min"
     << (res.converged_early ? " (converged early)" : "") << "\n";
  if (res.retries + res.exhausted + res.lost_results + res.crashed_workers + res.dead_agents >
      0) {
    os << "faults: " << res.retries << " retries, " << res.exhausted
       << " floored after retry budget, " << res.lost_results << " lost results, "
       << res.crashed_workers << " crashed worker(s), " << res.dead_agents
       << " dead agent(s)\n";
  }
  if (res.checkpoints_written + res.resumes > 0) {
    os << "checkpoints: " << res.checkpoints_written << " snapshot(s) written, " << res.resumes
       << " resume(s) behind this result\n";
  }
  if (res.ladder_trainings > 0) {
    os << "fidelity ladder: " << res.ladder_trainings << " rung trainings ("
       << res.ladder_warm_starts << " warm-started), " << res.ladder_promotions
       << " promotions, " << res.ladder_rung_hits << " rung-level shared-cache hits\n";
  }
  os << "\n";
  if (markdown) os << "```\n";
  std::vector<std::pair<double, float>> rewards;
  for (const auto& e : res.evals) rewards.emplace_back(e.time, e.reward);
  analytics::print_sparkline(os, "mean reward ",
                             analytics::reward_trajectory(rewards, res.end_time), -1.0, 1.0);
  analytics::print_sparkline(
      os, "utilization ",
      analytics::utilization_trajectory(res.utilization, res.utilization_bucket, res.end_time),
      0.0, 1.0);

  os << "\ntop-5 architectures by estimated reward:\n";
  for (const auto& rec : res.top_k(5)) {
    os << "  reward " << analytics::fmt(rec.reward) << ", " << rec.params << " params, agent "
       << rec.agent << ": " << space::arch_key(rec.arch) << "\n";
  }
  os << "\nlate-search decision histogram (second half):\n";
  analytics::print_arch_stats(os, analytics::compute_arch_stats(sp, res, res.end_time / 2.0));
  if (markdown) os << "```\n";
}

/// The flat profile's hottest scopes, the kernel roofline, allocation
/// accounting, and the eval wall gap against the journal.
void print_profile(std::ostream& os, bool markdown, const obs::ImportedProfile& prof,
                   const obs::EvalWallGap& gap, bool converged) {
  os << "\n" << h2(markdown) << "Profile\n";
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

  os << "eval wall time: profiler " << analytics::fmt(gap.profile_ms, 1) << " ms vs journal "
     << analytics::fmt(gap.journal_ms, 1) << " ms (" << analytics::fmt(100.0 * gap.rel, 1)
     << "% apart)\n";
  if (!gap.saw_eval_scopes) {
    os << "  no eval/train or eval/validate scopes in the profile — was the run profiled?\n";
  }
  if (gap.rel > kMaxEvalWallGap && converged) {
    os << "  (informational: the run converged with batches in flight, whose trainings no"
          " eval_finished reports)\n";
  }
}

/// --format=json with --result: the log's counters, top-5 and utilization,
/// plus the journal replay and cross-check, and the eval wall gap.
void print_result_json(std::ostream& os, const std::string& path, const std::string& fingerprint,
                       const nas::SearchResult& res, const obs::RunSummary* sum,
                       const std::vector<std::string>& mismatches, const obs::EvalWallGap* gap,
                       bool profile_diverged) {
  os << '{';
  obs::write_json_string(os, "log");
  os << ':';
  obs::write_json_string(os, path);
  os << ',';
  obs::write_json_string(os, "config");
  os << ':';
  obs::write_json_string(os, fingerprint);
  os << ",\"evals\":" << res.evals.size() << ",\"cache_hits\":" << res.cache_hits
     << ",\"shared_cache_hits\":" << res.shared_cache_hits << ",\"timeouts\":" << res.timeouts
     << ",\"unique_archs\":" << res.unique_archs << ",\"ppo_updates\":" << res.ppo_updates
     << ",\"end_time_s\":";
  obs::write_json_number(os, res.end_time);
  os << ",\"converged\":" << (res.converged_early ? "true" : "false")
     << ",\"retries\":" << res.retries << ",\"exhausted\":" << res.exhausted
     << ",\"lost_results\":" << res.lost_results << ",\"crashed_workers\":" << res.crashed_workers
     << ",\"dead_agents\":" << res.dead_agents
     << ",\"checkpoints_written\":" << res.checkpoints_written << ",\"resumes\":" << res.resumes
     << ",\"ladder_trainings\":" << res.ladder_trainings
     << ",\"ladder_promotions\":" << res.ladder_promotions
     << ",\"ladder_warm_starts\":" << res.ladder_warm_starts
     << ",\"ladder_rung_hits\":" << res.ladder_rung_hits << ",\"top\":[";
  bool first = true;
  for (const auto& rec : res.top_k(5)) {
    if (!first) os << ',';
    first = false;
    os << "{\"reward\":";
    obs::write_json_number(os, rec.reward);
    os << ",\"params\":" << rec.params << ",\"agent\":" << rec.agent << ",\"arch\":";
    obs::write_json_string(os, space::arch_key(rec.arch));
    os << '}';
  }
  os << "],\"utilization\":[";
  for (std::size_t i = 0; i < res.utilization.size(); ++i) {
    if (i) os << ',';
    obs::write_json_number(os, res.utilization[i]);
  }
  os << ']';
  if (sum != nullptr) {
    std::ostringstream summary;
    obs::export_run_summary_json(*sum, summary);
    std::string summary_str = summary.str();
    while (!summary_str.empty() && summary_str.back() == '\n') summary_str.pop_back();
    os << ",\"journal_summary\":" << summary_str;
    os << ",\"cross_check_ok\":" << (mismatches.empty() ? "true" : "false") << ",\"mismatches\":[";
    for (std::size_t i = 0; i < mismatches.size(); ++i) {
      if (i) os << ',';
      obs::write_json_string(os, mismatches[i]);
    }
    os << ']';
  }
  if (gap != nullptr) {
    os << ",\"profile_eval_ms\":";
    obs::write_json_number(os, gap->profile_ms);
    os << ",\"journal_eval_ms\":";
    obs::write_json_number(os, gap->journal_ms);
    os << ",\"profile_rel_gap\":";
    obs::write_json_number(os, gap->rel);
    os << ",\"profile_cross_check_ok\":" << (profile_diverged ? "false" : "true");
  }
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool markdown = false;
  bool json = false;
  std::vector<std::string> journal_paths;
  std::string profile_path;
  std::string result_path;
  std::string space_name;
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
    } else if (arg == "--result") {
      if (i + 2 >= argc) {
        std::cerr << "--result needs a log file and a space name\n";
        return 2;
      }
      result_path = argv[++i];
      space_name = argv[++i];
    } else {
      journal_paths.push_back(arg);
    }
  }
  if (journal_paths.empty() && result_path.empty()) {
    std::cerr << "usage: run_report [<journal.jsonl>...] [--result <log> <space>] [--md]"
                 " [--format=json] [--profile <file>]\n  spaces:";
    for (const auto& n : space::space_names()) std::cerr << ' ' << n;
    std::cerr << '\n';
    return 2;
  }
  if (!profile_path.empty() && journal_paths.empty()) {
    std::cerr << "--profile needs a journal: its eval wall time is checked against the profile\n";
    return 2;
  }
  const bool have_journal = !journal_paths.empty();

  std::optional<nas::SearchResult> res;
  std::string fingerprint;
  std::optional<space::SearchSpace> sp;
  if (!result_path.empty()) {
    try {
      sp = space::space_by_name(space_name);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
    // A viewer, not a cache: accept whatever fingerprint the log carries.
    if (const auto fp = nas::read_fingerprint(result_path)) {
      fingerprint = *fp;
      res = nas::load_result(result_path, fingerprint);
    }
    if (!res) {
      std::cerr << "cannot read " << result_path << "\n";
      return 1;
    }
    // The decision histogram indexes each record's choices by the space's
    // decisions, so a log of another space is refused here, not mid-report.
    for (const nas::EvalRecord& e : res->evals) {
      if (!sp->is_valid(e.arch)) {
        std::cerr << result_path << " holds an architecture that is not in space '" << space_name
                  << "'\n";
        return 1;
      }
    }
  }

  std::vector<obs::JournalEvent> events;
  try {
    events = obs::read_journal_lineage(journal_paths);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  const obs::RunSummary sum = obs::summarize_journal(events);
  const std::vector<std::string> mismatches =
      res && have_journal ? nas::reconcile(*res, sum) : std::vector<std::string>{};

  std::optional<obs::ImportedProfile> prof;
  obs::EvalWallGap gap;
  if (!profile_path.empty()) {
    std::ifstream pin(profile_path);
    if (!pin) {
      std::cerr << "cannot open profile " << profile_path << "\n";
      return 1;
    }
    try {
      prof = obs::import_profile_json(pin);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
    gap = obs::eval_wall_gap(prof->flat, events);
  }
  // A converged run stops with batches in flight whose trainings no
  // eval_finished reports, so its instruments may diverge: report, don't
  // fail. Failed records report theirs like any other.
  const bool profile_diverged = prof && gap.rel > kMaxEvalWallGap && !sum.converged;

  std::ostream& os = std::cout;
  if (json) {
    if (res) {
      print_result_json(os, result_path, fingerprint, *res, have_journal ? &sum : nullptr,
                        mismatches, prof ? &gap : nullptr, profile_diverged);
    } else {
      obs::export_run_summary_json(sum, os);
    }
  } else {
    const std::string& path = have_journal ? journal_paths.front() : result_path;
    if (markdown) os << "# Run report: " << path << "\n\n";
    else os << "run report: " << path << "\n\n";
    if (have_journal) print_journal_report(os, markdown, sum, events);
    if (res) {
      if (have_journal) os << "\n";
      print_result_report(os, markdown, result_path, fingerprint, *res, *sp);
      if (have_journal) {
        os << "\n" << h2(markdown) << "Cross-check\n";
        os << "journal lineage (" << journal_paths.size() << " journal(s), " << events.size()
           << " events) against the log:\n";
        for (const std::string& m : mismatches) os << "  MISMATCH: " << m << "\n";
        if (mismatches.empty()) {
          os << "  OK: " << sum.evals << " evals, best reward " << analytics::fmt(sum.best_reward)
             << " — journal and log agree\n";
        }
      }
    }
    if (prof) print_profile(os, markdown, *prof, gap, sum.converged);
  }

  if (!mismatches.empty()) {
    std::cerr << "journal/log divergence: the artifacts are not from the same run\n";
    return 1;
  }
  if (profile_diverged) {
    std::cerr << "profile/journal divergence: eval wall time disagrees beyond 25%\n";
    return 1;
  }
  return 0;
}
