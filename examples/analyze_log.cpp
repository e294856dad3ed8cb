// analyze_log — the analytics module as a standalone tool: reads a search
// log from nas_logs/ (written by any bench or by nas::save_result) and
// reports the reward trajectory, utilization, top architectures, and the
// controller's decision histogram.
//
//   ./examples/analyze_log nas_logs/<tag>.log <space-name> [--journal <file>]...
//
// With --journal the tool also replays a structured journal (JSONL written by
// Telemetry::export_journal_jsonl) of the same run and cross-checks it against
// the result log with nas::reconcile (eval count, best reward, cache, shared
// and timeout counts, fault, checkpoint and ladder counters) — a divergence
// means the two artifacts are from different runs (exit 1).
//
// --journal may repeat for a checkpointed run that was interrupted and
// resumed: pass the journals in process order (original first, each resumed
// process after it) and they are stitched with obs::merge_resumed_journal at
// each run_resumed watermark before the replay, so the cross-check covers
// the whole lineage as if the run had never been interrupted.
//
// With --profile (requires --journal) the tool also loads a profile JSON
// (written by Telemetry::export_profile_json) and cross-checks the profiler's
// eval/train + eval/validate wall time against the journal's per-eval
// train_wall_ms sum — the two instruments bracket the same code region, so a
// large gap means the artifacts are from different runs (exit 1, unless the
// run converged early: the batches still in flight when it stopped were
// trained but never harvested, so no eval_finished carries their time).
//
// With --format=json the same analysis is emitted as one JSON object on
// stdout (log counters, top-k, utilization, the journal replay via
// export_run_summary_json, and the cross-check verdicts) so nas_top and
// external tooling consume it without scraping terminal text. Exit codes are
// identical to the text path.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "ncnas/analytics/arch_stats.hpp"
#include "ncnas/analytics/report.hpp"
#include "ncnas/analytics/series.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/space/spaces.hpp"

int main(int argc, char** argv) {
  using namespace ncnas;
  std::vector<std::string> positional;
  std::vector<std::string> journal_paths;
  std::string profile_path;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--journal") {
      if (i + 1 >= argc) {
        std::cerr << "--journal needs a file argument\n";
        return 2;
      }
      journal_paths.push_back(argv[++i]);
    } else if (arg == "--profile") {
      if (i + 1 >= argc) {
        std::cerr << "--profile needs a file argument\n";
        return 2;
      }
      profile_path = argv[++i];
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
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 2) {
    std::cerr << "usage: analyze_log <log-file> <space-name> [--journal <file>]..."
                 " [--profile <file>] [--format=json]\n  spaces:";
    for (const auto& n : space::space_names()) std::cerr << ' ' << n;
    std::cerr << '\n';
    return 2;
  }
  if (!profile_path.empty() && journal_paths.empty()) {
    std::cerr << "--profile requires --journal (the cross-check needs the journal's"
                 " train_wall_ms stream)\n";
    return 2;
  }
  const std::string path = positional[0];
  const space::SearchSpace sp = space::space_by_name(positional[1]);

  // Accept whatever fingerprint the log carries (this is a viewer, not a
  // cache): read it from line 2 and pass it back.
  std::string fingerprint;
  {
    std::ifstream in(path);
    std::string magic;
    std::getline(in, magic);
    std::getline(in, fingerprint);
  }
  const auto res = nas::load_result(path, fingerprint);
  if (!res) {
    std::cerr << "cannot read " << path << "\n";
    return 1;
  }

  // ---- journal replay + cross-check (computed up front, rendered later) ----
  obs::RunSummary sum;
  std::vector<obs::JournalEvent> events;
  std::vector<std::string> mismatches;
  const bool have_journal = !journal_paths.empty();
  if (have_journal) {
    try {
      for (std::size_t j = 0; j < journal_paths.size(); ++j) {
        std::ifstream jin(journal_paths[j]);
        if (!jin) {
          std::cerr << "cannot open journal " << journal_paths[j] << "\n";
          return 1;
        }
        std::vector<obs::JournalEvent> part = obs::Journal::import_jsonl(jin);
        // The first journal stands alone; each later one opens with a
        // run_resumed event whose watermark stitches it onto the lineage.
        events = j == 0 ? std::move(part)
                        : obs::merge_resumed_journal(std::move(events), part);
      }
      sum = obs::summarize_journal(events);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
    mismatches = nas::reconcile(*res, sum);
  }

  // ---- profile cross-check (requires the journal's train_wall_ms stream) ----
  double profile_ms = 0.0;
  double journal_ms = 0.0;
  double profile_rel = 0.0;
  bool saw_eval_scopes = false;
  bool profile_diverged = false;
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
    for (const obs::FlatProfileEntry& e : prof.flat) {
      if (e.name == "eval/train" || e.name == "eval/validate") {
        profile_ms += e.total_ms;
        saw_eval_scopes = true;
      }
    }
    for (const obs::JournalEvent& e : events) {
      if (e.type == obs::JournalEventType::kEvalFinished) {
        journal_ms += e.field("train_wall_ms");
      }
    }
    profile_rel = journal_ms > 0.0 ? std::abs(profile_ms - journal_ms) / journal_ms
                                   : (profile_ms > 0.0 ? 1.0 : 0.0);
    // A converged run stops with batches in flight whose trainings no
    // eval_finished reports, so its instruments may diverge: report, don't
    // fail. Failed records report theirs like any other.
    profile_diverged = profile_rel > 0.25 && !sum.converged;
  }

  // ---- machine-readable rendering ----
  if (json) {
    std::ostream& os = std::cout;
    os << '{';
    obs::write_json_string(os, "log");
    os << ':';
    obs::write_json_string(os, path);
    os << ',';
    obs::write_json_string(os, "config");
    os << ':';
    obs::write_json_string(os, fingerprint);
    os << ",\"evals\":" << res->evals.size() << ",\"cache_hits\":" << res->cache_hits
       << ",\"shared_cache_hits\":" << res->shared_cache_hits
       << ",\"timeouts\":" << res->timeouts << ",\"unique_archs\":" << res->unique_archs
       << ",\"ppo_updates\":" << res->ppo_updates << ",\"end_time_s\":";
    obs::write_json_number(os, res->end_time);
    os << ",\"converged\":" << (res->converged_early ? "true" : "false")
       << ",\"retries\":" << res->retries << ",\"exhausted\":" << res->exhausted
       << ",\"lost_results\":" << res->lost_results
       << ",\"crashed_workers\":" << res->crashed_workers
       << ",\"dead_agents\":" << res->dead_agents
       << ",\"checkpoints_written\":" << res->checkpoints_written
       << ",\"resumes\":" << res->resumes
       << ",\"ladder_trainings\":" << res->ladder_trainings
       << ",\"ladder_promotions\":" << res->ladder_promotions
       << ",\"ladder_warm_starts\":" << res->ladder_warm_starts
       << ",\"ladder_rung_hits\":" << res->ladder_rung_hits << ",\"top\":[";
    bool first = true;
    for (const auto& rec : res->top_k(5)) {
      if (!first) os << ',';
      first = false;
      os << "{\"reward\":";
      obs::write_json_number(os, rec.reward);
      os << ",\"params\":" << rec.params << ",\"agent\":" << rec.agent << ",\"arch\":";
      obs::write_json_string(os, space::arch_key(rec.arch));
      os << '}';
    }
    os << "],\"utilization\":[";
    for (std::size_t i = 0; i < res->utilization.size(); ++i) {
      if (i) os << ',';
      obs::write_json_number(os, res->utilization[i]);
    }
    os << ']';
    if (have_journal) {
      std::ostringstream summary;
      obs::export_run_summary_json(sum, summary);
      std::string summary_str = summary.str();
      while (!summary_str.empty() && summary_str.back() == '\n') summary_str.pop_back();
      os << ",\"journal_summary\":" << summary_str;
      os << ",\"cross_check_ok\":" << (mismatches.empty() ? "true" : "false")
         << ",\"mismatches\":[";
      for (std::size_t i = 0; i < mismatches.size(); ++i) {
        if (i) os << ',';
        obs::write_json_string(os, mismatches[i]);
      }
      os << ']';
    }
    if (!profile_path.empty()) {
      os << ",\"profile_eval_ms\":";
      obs::write_json_number(os, profile_ms);
      os << ",\"journal_eval_ms\":";
      obs::write_json_number(os, journal_ms);
      os << ",\"profile_rel_gap\":";
      obs::write_json_number(os, profile_rel);
      os << ",\"profile_cross_check_ok\":" << (profile_diverged ? "false" : "true");
    }
    os << "}\n";
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

  // ---- terminal rendering ----
  std::cout << "log: " << path << "\nconfig: " << fingerprint << "\n\n";
  std::cout << res->evals.size() << " evaluations (" << res->cache_hits << " cached, "
            << res->timeouts << " timed out), " << res->unique_archs
            << " unique architectures, " << res->ppo_updates << " PPO updates\n";
  if (res->shared_cache_hits > 0) {
    std::cout << "shared eval cache: " << res->shared_cache_hits
              << " hit(s) served from the cross-tenant store\n";
  }
  std::cout << "search span: " << analytics::fmt(res->end_time / 60.0, 1) << " min"
            << (res->converged_early ? " (converged early)" : "") << "\n";
  if (res->retries + res->exhausted + res->lost_results + res->crashed_workers +
          res->dead_agents >
      0) {
    std::cout << "faults: " << res->retries << " retries, " << res->exhausted
              << " floored after retry budget, " << res->lost_results << " lost results, "
              << res->crashed_workers << " crashed worker(s), " << res->dead_agents
              << " dead agent(s)\n";
  }
  if (res->checkpoints_written + res->resumes > 0) {
    std::cout << "checkpoints: " << res->checkpoints_written << " snapshot(s) written, "
              << res->resumes << " resume(s) behind this result\n";
  }
  if (res->ladder_trainings > 0) {
    std::cout << "fidelity ladder: " << res->ladder_trainings << " rung trainings ("
              << res->ladder_warm_starts << " warm-started), " << res->ladder_promotions
              << " promotions, " << res->ladder_rung_hits << " rung-level shared-cache hits\n";
  }
  std::cout << "\n";

  std::vector<std::pair<double, float>> rewards;
  for (const auto& e : res->evals) rewards.emplace_back(e.time, e.reward);
  const auto mean = analytics::resample_mean(rewards, res->end_time, 600.0, -1.0);
  analytics::print_sparkline(std::cout, "mean reward ", mean, -1.0, 1.0);
  analytics::print_sparkline(std::cout, "utilization ", res->utilization, 0.0, 1.0);

  std::cout << "\ntop-5 architectures by estimated reward:\n";
  for (const auto& rec : res->top_k(5)) {
    std::cout << "  reward " << analytics::fmt(rec.reward) << ", " << rec.params
              << " params, agent " << rec.agent << ": " << space::arch_key(rec.arch) << "\n";
  }

  std::cout << "\nlate-search decision histogram (second half):\n";
  const auto stats = analytics::compute_arch_stats(sp, *res, res->end_time / 2.0);
  analytics::print_arch_stats(std::cout, stats);

  if (have_journal) {
    std::cout << "\njournal cross-check (" << journal_paths.size() << " journal(s), "
              << events.size() << " events):\n";
    if (sum.resumes > 0) {
      std::cout << "  resume boundaries:";
      for (const double t : sum.resume_times) {
        std::cout << ' ' << analytics::fmt(t / 60.0, 1) << " min";
      }
      std::cout << "\n";
    }
    for (const std::string& m : mismatches) std::cout << "  MISMATCH: " << m << "\n";
    if (mismatches.empty()) {
      std::cout << "  OK: " << sum.evals << " evals, best reward "
                << analytics::fmt(sum.best_reward) << " — journal and log agree\n";
    } else {
      std::cerr << "journal/log divergence: the artifacts are not from the same run\n";
      return 1;
    }

    if (!profile_path.empty()) {
      std::cout << "\nprofile cross-check (" << profile_path << "):\n"
                << "  profiler eval train+validate " << analytics::fmt(profile_ms, 1)
                << " ms vs journal train wall " << analytics::fmt(journal_ms, 1) << " ms ("
                << analytics::fmt(100.0 * profile_rel, 1) << "% apart)\n";
      if (!saw_eval_scopes) {
        std::cout << "  no eval/train or eval/validate scopes in the profile — was the"
                     " run profiled?\n";
      }
      if (profile_diverged) {
        std::cerr << "profile/journal divergence: eval wall time disagrees beyond 25%\n";
        return 1;
      }
      if (profile_rel > 0.25) {
        std::cout << "  (informational: the run converged with batches in flight, whose"
                     " trainings no eval_finished reports)\n";
      }
    }
  }
  return 0;
}
