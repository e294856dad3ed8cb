// resume_search — end-to-end kill-and-resume harness for the checkpoint
// subsystem, and the tool behind the CI smoke job:
//
//   ./examples/resume_search reference <dir>   uninterrupted run  -> <dir>/reference.log
//   ./examples/resume_search run <dir>         checkpointed run that dies (SIGKILL,
//                                              exit 137) after --kill-after snapshots
//   ./examples/resume_search resume <dir>      continue from the newest snapshot
//                                              in <dir>/snaps  -> <dir>/resumed.log
//   ./examples/resume_search verify <a> <b>    compare two result logs field by
//                                              field (exit 1 on any divergence)
//
// Common flags: --strategy a3c|a2c|rdm|evo (default a3c), --minutes M (default
// 30 simulated minutes), --kill-after N (default 1). All three run modes build
// the identical SearchConfig, so `verify reference.log resumed.log` proves the
// interrupted-then-resumed lineage reproduced the uninterrupted search
// bit-identically. Each process also exports its structured journal
// (<dir>/journal-reference.jsonl, journal-0.jsonl, journal-1.jsonl, ...) so the
// lineage can be stitched back together with run_report, which also
// cross-checks it against the final log (`run_report --result`).
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "ncnas/ckpt/checkpoint.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/thread_pool.hpp"

using namespace ncnas;

namespace {

nas::SearchStrategy parse_strategy(const std::string& s) {
  if (s == "a3c") return nas::SearchStrategy::kA3C;
  if (s == "a2c") return nas::SearchStrategy::kA2C;
  if (s == "rdm") return nas::SearchStrategy::kRandom;
  if (s == "evo") return nas::SearchStrategy::kEvolution;
  std::cerr << "unknown strategy '" << s << "' (want a3c|a2c|rdm|evo)\n";
  std::exit(2);
}

/// The one config every subcommand shares: identical fingerprint, so the
/// reference log and the resumed log are comparable artifacts.
nas::SearchConfig shared_config(nas::SearchStrategy strategy, double minutes) {
  nas::SearchConfig cfg;
  cfg.strategy = strategy;
  cfg.cluster = {.num_agents = 3, .workers_per_agent = 4};
  cfg.wall_time_seconds = minutes * 60.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = 11;
  return cfg;
}

data::Dataset tiny_nt3() {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(5, dims);
}

void export_journal(const obs::Telemetry& telemetry, const std::string& path) {
  std::ofstream out(path);
  telemetry.export_journal_jsonl(out);
}

int verify(const std::string& path_a, const std::string& path_b) {
  const auto fp_a = nas::read_fingerprint(path_a);
  const auto fp_b = nas::read_fingerprint(path_b);
  if (fp_a && fp_b && *fp_a != *fp_b) {
    std::cerr << "FINGERPRINT MISMATCH:\n  " << path_a << ": " << *fp_a << "\n  " << path_b
              << ": " << *fp_b << "\n";
    return 1;
  }
  const auto a = fp_a ? nas::load_result(path_a, *fp_a) : std::nullopt;
  const auto b = fp_b ? nas::load_result(path_b, *fp_b) : std::nullopt;
  if (!a || !b) {
    std::cerr << "cannot load " << (!a ? path_a : path_b) << "\n";
    return 1;
  }

  std::size_t mismatches = 0;
  const auto check = [&](const char* what, auto va, auto vb) {
    if (va == vb) return;
    std::cerr << "MISMATCH " << what << ": " << va << " vs " << vb << "\n";
    ++mismatches;
  };
  // Everything the search computed must agree. The two checkpoint/resume
  // bookkeeping counters are deliberately excluded: the reference run has no
  // checkpoint policy (0 snapshots, 0 resumes) while the interrupted lineage
  // legitimately reports its own — that difference is the point, not a bug.
  check("eval count", a->evals.size(), b->evals.size());
  check("end_time", a->end_time, b->end_time);
  check("converged_early", a->converged_early, b->converged_early);
  check("cache_hits", a->cache_hits, b->cache_hits);
  check("timeouts", a->timeouts, b->timeouts);
  check("unique_archs", a->unique_archs, b->unique_archs);
  check("ppo_updates", a->ppo_updates, b->ppo_updates);
  check("retries", a->retries, b->retries);
  check("exhausted", a->exhausted, b->exhausted);
  check("lost_results", a->lost_results, b->lost_results);
  check("crashed_workers", a->crashed_workers, b->crashed_workers);
  check("dead_agents", a->dead_agents, b->dead_agents);
  check("utilization buckets", a->utilization.size(), b->utilization.size());
  for (std::size_t i = 0; i < std::min(a->utilization.size(), b->utilization.size()); ++i) {
    check("utilization", a->utilization[i], b->utilization[i]);
  }
  for (std::size_t i = 0; i < std::min(a->evals.size(), b->evals.size()); ++i) {
    const nas::EvalRecord& ea = a->evals[i];
    const nas::EvalRecord& eb = b->evals[i];
    check("eval.time", ea.time, eb.time);
    check("eval.reward", ea.reward, eb.reward);
    check("eval.params", ea.params, eb.params);
    check("eval.sim_duration", ea.sim_duration, eb.sim_duration);
    check("eval.cache_hit", ea.cache_hit, eb.cache_hit);
    check("eval.timed_out", ea.timed_out, eb.timed_out);
    check("eval.failed", ea.failed, eb.failed);
    check("eval.attempts", ea.attempts, eb.attempts);
    check("eval.agent", ea.agent, eb.agent);
    if (ea.arch != eb.arch) {
      std::cerr << "MISMATCH eval.arch at record " << i << "\n";
      ++mismatches;
    }
    if (mismatches > 20) {
      std::cerr << "... giving up after 20 mismatches\n";
      break;
    }
  }
  if (mismatches > 0) {
    std::cerr << "verify FAILED: " << path_a << " and " << path_b << " diverge\n";
    return 1;
  }
  std::cout << "verify OK: " << a->evals.size() << " evaluations bit-identical ("
            << path_a << " == " << path_b << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string strategy_arg = "a3c";
  double minutes = 30.0;
  std::size_t kill_after = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strategy" && i + 1 < argc) {
      strategy_arg = argv[++i];
    } else if (arg == "--minutes" && i + 1 < argc) {
      minutes = std::atof(argv[++i]);
    } else if (arg == "--kill-after" && i + 1 < argc) {
      kill_after = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 2) {
    std::cerr << "usage: resume_search reference|run|resume <dir> [--strategy a3c|a2c|rdm|evo]"
                 " [--minutes M] [--kill-after N]\n"
                 "       resume_search verify <log-a> <log-b>\n";
    return 2;
  }
  const std::string mode = positional[0];
  if (mode == "verify") {
    if (positional.size() < 3) {
      std::cerr << "usage: resume_search verify <log-a> <log-b>\n";
      return 2;
    }
    return verify(positional[1], positional[2]);
  }

  const std::string dir = positional[1];
  std::filesystem::create_directories(dir);
  const std::string snap_dir = dir + "/snaps";

  const space::SearchSpace sp = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  nas::SearchConfig cfg = shared_config(parse_strategy(strategy_arg), minutes);
  const std::string fingerprint = nas::config_fingerprint(cfg, sp.name());

  obs::Telemetry telemetry;
  telemetry.enable_journal();
  cfg.telemetry = &telemetry;

  // Snapshot every 5 simulated minutes: a 30-minute search crosses several
  // checkpoint boundaries, so --kill-after has room to bite.
  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = snap_dir;
  ckpt_cfg.interval_seconds = 5.0 * 60.0;

  tensor::ThreadPool pool;
  if (mode == "reference") {
    // No checkpoint policy at all: the baseline the lineage must reproduce.
    const nas::SearchResult res = nas::SearchDriver(sp, ds, cfg, &pool).run();
    nas::save_result(dir + "/reference.log", res, fingerprint);
    export_journal(telemetry, dir + "/journal-reference.jsonl");
    std::cout << "reference: " << res.evals.size() << " evaluations, end t " << res.end_time
              << " s -> " << dir << "/reference.log\n";
    return 0;
  }
  if (mode == "run") {
    cfg.checkpoint = &ckpt_cfg;
    ckpt_cfg.abort_after_snapshots = kill_after;
    try {
      const nas::SearchResult res = nas::SearchDriver(sp, ds, cfg, &pool).run();
      // Interval longer than the search: nothing to kill, run just finishes.
      nas::save_result(dir + "/resumed.log", res, fingerprint);
      export_journal(telemetry, dir + "/journal-0.jsonl");
      std::cout << "run finished before writing " << kill_after
                << " snapshot(s); nothing to resume\n";
      return 0;
    } catch (const ckpt::SearchInterrupted& e) {
      // The snapshot is on disk; journal out, then die the way a preempted
      // job does. Exit code 137 = 128 + SIGKILL, which the CI job asserts.
      export_journal(telemetry, dir + "/journal-0.jsonl");
      std::cout << "interrupted after snapshot " << e.snapshot_path() << "; dying\n";
      std::cout.flush();
      std::raise(SIGKILL);
      return 1;  // unreachable
    }
  }
  if (mode == "resume") {
    cfg.checkpoint = &ckpt_cfg;
    const auto latest = ckpt::latest_checkpoint(snap_dir);
    if (!latest) {
      std::cerr << "no snapshots in " << snap_dir << " (run `resume_search run " << dir
                << "` first)\n";
      return 1;
    }
    std::cout << "resuming from " << *latest << "\n";
    const nas::SearchResult res = nas::resume_search(*latest, sp, ds, cfg, &pool);
    nas::save_result(dir + "/resumed.log", res, fingerprint);
    export_journal(telemetry, dir + "/journal-1.jsonl");
    std::cout << "resumed: " << res.evals.size() << " evaluations, end t " << res.end_time
              << " s, " << res.checkpoints_written << " snapshot(s) over the lineage -> "
              << dir << "/resumed.log\n";
    return 0;
  }
  std::cerr << "unknown mode '" << mode << "'\n";
  return 2;
}
