// Runs a small Combo search with telemetry enabled and emits every export
// format the obs subsystem supports:
//
//   telemetry_metrics.prom   OpenMetrics text exposition (what /metrics
//                            serves); the run fails unless it validates
//   telemetry_trace.json     Chrome trace rendered from the journal — load
//                            in about://tracing or https://ui.perfetto.dev
//                            (one row per agent)
//   telemetry_journal.jsonl  the structured run journal (replay it with
//                            examples/run_report)
//   telemetry_profile.json   flat profile + roofline inputs (diff two runs
//                            with examples/perf_diff)
//
// plus the analytics report's telemetry section on stdout, with a
// reconciliation of the journal replay against SearchResult (nas::reconcile)
// and of the profiler's eval wall time against the journal's per-eval
// train_wall_ms.
//
//   ./examples/telemetry_dump [--serve <port>] [--linger <s>]
//                             [--cadence <virtual-s>] [--live-journal <file>]
//
// --serve enables the live exporter on that HTTP port (0 = ephemeral; the
// bound port is printed) and --linger keeps the process alive that many wall
// seconds after the search so /metrics, /healthz, and /progress can be
// curled — the hook CI's live-obs-smoke job uses. An unwritable artifact or
// a failed bind degrades gracefully: one clear message, one bump of
// ncnas_exporter_errors_total, and the run carries on.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <thread>

#include "ncnas/analytics/report.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/thread_pool.hpp"

using namespace ncnas;

int main(int argc, char** argv) {
  int serve_port = -1;
  double linger_seconds = 0.0;
  double cadence = 60.0;
  std::string live_journal;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << what << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--serve") {
      serve_port = std::stoi(need("--serve"));
    } else if (arg == "--linger") {
      linger_seconds = std::stod(need("--linger"));
    } else if (arg == "--cadence") {
      cadence = std::stod(need("--cadence"));
    } else if (arg == "--live-journal") {
      live_journal = need("--live-journal");
    } else {
      std::cerr << "usage: telemetry_dump [--serve <port>] [--linger <s>]"
                   " [--cadence <virtual-s>] [--live-journal <file>]\n";
      return 2;
    }
  }

  data::ComboDims dims;
  dims.train = 512;
  dims.valid = 128;
  const data::Dataset ds = data::make_combo(1, dims);
  const space::SearchSpace sp = space::combo_small_space();

  obs::Telemetry telemetry;
  telemetry.enable_journal();
  telemetry.enable_watchdog();
  telemetry.enable_profiler();
  const bool exporter_on = serve_port >= 0 || !live_journal.empty();
  if (exporter_on) {
    obs::ExporterConfig ecfg;
    ecfg.cadence_seconds = cadence;
    ecfg.http_port = serve_port;
    ecfg.live_journal_path = live_journal;
    telemetry.enable_exporter(std::move(ecfg));
    if (serve_port >= 0 && telemetry.exporter()->http_port() > 0) {
      std::cout << "exporter serving on 127.0.0.1:" << telemetry.exporter()->http_port()
                << " (/metrics /healthz /progress)\n"
                << std::flush;
    }
  }
  nas::SearchConfig cfg;
  cfg.strategy = nas::SearchStrategy::kA2C;  // barrier waits show in the trace
  cfg.cluster = {.num_agents = 4, .workers_per_agent = 4};
  cfg.wall_time_seconds = 30.0 * 60.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 0.5};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = 7;
  cfg.telemetry = &telemetry;

  tensor::ThreadPool pool;
  std::cout << "searching (" << nas::strategy_name(cfg.strategy) << ", "
            << cfg.cluster.num_agents << " agents x " << cfg.cluster.workers_per_agent
            << " workers, 30 simulated minutes)...\n";
  const nas::SearchResult res = nas::SearchDriver(sp, ds, cfg, &pool).run();

  std::cout << "\n== run summary ==\n"
            << "evals " << res.evals.size() << ", cache hits " << res.cache_hits
            << ", timeouts " << res.timeouts << ", ppo updates " << res.ppo_updates
            << ", end t " << res.end_time << "s\n";

  const obs::TelemetrySnapshot& snap = *res.telemetry;
  std::cout << "\n== telemetry ==\n";
  analytics::print_telemetry(std::cout, snap.metrics);

  std::cout << "\n== reconciliation (journal replay vs SearchResult) ==\n";
  const auto check = [](const char* what, std::uint64_t a, std::uint64_t b) {
    std::cout << (a == b ? "  ok   " : "  FAIL ") << what << ": " << a << " vs " << b << '\n';
    return a == b;
  };
  const std::vector<std::string> mismatches =
      nas::reconcile(res, obs::summarize_journal(snap.journal));
  for (const std::string& m : mismatches) std::cout << "  FAIL " << m << '\n';
  if (mismatches.empty()) {
    std::cout << "  ok   " << res.evals.size() << " evals and every counter\n";
  }
  bool ok = mismatches.empty();

  const obs::WatchdogReport health = telemetry.watchdog()->report();
  std::cout << "\n== watchdog ==\n"
            << (health.healthy() ? "healthy" : "unhealthy") << ": "
            << health.stragglers.size() << " stragglers, " << health.stalls.size()
            << " stalls, expected eval " << health.expected_eval_seconds << "s over "
            << health.evals_seen << " completed evals\n";

  if (exporter_on) {
    const obs::Exporter& exporter = *telemetry.exporter();
    std::cout << "\n== exporter ==\n"
              << exporter.publications() << " publication(s), " << exporter.errors()
              << " error(s), http port " << exporter.http_port() << "\n";
    // Exporter publications must not change what the search returned, and
    // its final /metrics payload must be a conformant OpenMetrics exposition.
    std::string err;
    const bool om_ok = obs::validate_openmetrics(exporter.metrics_text(), &err);
    std::cout << (om_ok ? "  ok   " : "  FAIL ") << "OpenMetrics conformance"
              << (om_ok ? "" : ": " + err) << "\n";
    ok &= om_ok;
    ok &= check("publications", exporter.publications() > 0 ? 1 : 0, 1);
  }

  std::cout << "\n== profile ==\n";
  snap.profile.export_text(std::cout);

  // The eval/train + eval/validate scopes cover the same code region the
  // train_wall_ms stopwatch measures, so the profile and the journal must
  // agree on total eval wall time up to scope overhead.
  std::cout << "\n== reconciliation (profile vs journal eval wall time) ==\n";
  double profile_ms = 0.0;
  for (const obs::FlatProfileEntry& e : snap.profile.flat()) {
    if (e.name == "eval/train" || e.name == "eval/validate") profile_ms += e.total_ms;
  }
  double journal_ms = 0.0;
  for (const obs::JournalEvent& e : snap.journal) {
    if (e.type == obs::JournalEventType::kEvalFinished) {
      journal_ms += e.field("train_wall_ms");
    }
  }
  const double rel = journal_ms > 0.0
                         ? std::abs(profile_ms - journal_ms) / journal_ms
                         : (profile_ms > 0.0 ? 1.0 : 0.0);
  const bool wall_ok = rel <= 0.10;
  std::cout << (wall_ok ? "  ok   " : "  FAIL ") << "profile train+validate " << profile_ms
            << " ms vs journal train wall " << journal_ms << " ms ("
            << static_cast<int>(100.0 * rel) << "% apart)\n";
  ok &= wall_ok;

  // A full disk or read-only cwd must not look like a crash: each artifact
  // degrades independently with a message and an error-counter bump.
  std::size_t artifacts = 0;
  const auto write_artifact = [&](const char* path, auto&& emit) {
    std::ofstream out(path);
    if (out) {
      emit(out);
      out.flush();
    }
    if (!out) {
      std::cerr << "telemetry_dump: cannot write " << path
                << "; skipping this artifact and carrying on\n";
      telemetry.metrics().counter("ncnas_exporter_errors_total").inc();
      return;
    }
    ++artifacts;
  };
  const std::string metrics_text = obs::openmetrics_text(snap.metrics);
  std::string om_error;
  const bool prom_ok = obs::validate_openmetrics(metrics_text, &om_error);
  std::cout << (prom_ok ? "  ok   " : "  FAIL ") << "telemetry_metrics.prom OpenMetrics conformance"
            << (prom_ok ? "" : ": " + om_error) << "\n";
  ok &= prom_ok;
  write_artifact("telemetry_metrics.prom", [&](std::ostream& o) { o << metrics_text; });
  write_artifact("telemetry_trace.json", [&](std::ostream& o) { telemetry.export_chrome_trace(o); });
  write_artifact("telemetry_journal.jsonl",
                 [&](std::ostream& o) { telemetry.export_journal_jsonl(o); });
  write_artifact("telemetry_profile.json", [&](std::ostream& o) { telemetry.export_profile_json(o); });
  std::size_t eval_spans = 0;
  for (const obs::JournalEvent& e : snap.journal) {
    eval_spans += e.type == obs::JournalEventType::kEvalDispatched ? 1 : 0;
  }
  std::cout << "\nwrote " << artifacts << "/4 artifacts: telemetry_metrics.prom,"
            << " telemetry_trace.json (" << eval_spans << " eval spans),"
            << " telemetry_journal.jsonl (" << snap.journal.size()
            << " events), telemetry_profile.json (" << snap.profile.flat().size()
            << " scopes)\n";

  if (exporter_on && linger_seconds > 0.0) {
    std::cout << "lingering " << linger_seconds << "s for live scrapes on port "
              << telemetry.exporter()->http_port() << "...\n"
              << std::flush;
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_seconds));
  }
  return ok ? 0 : 1;
}
