// Telemetry overhead proof: the same small search scenario bench_micro uses,
// run (a) with SearchConfig::telemetry null — which must cost nothing beyond
// the seed driver — (b) with a live Telemetry sink, which must stay within a
// few percent, (c) with the journal and watchdog enabled on top, and (d) with
// the hierarchical profiler recording every kernel, graph-op, and driver
// scope — the acceptance bound for (d) is <5% over (a). Compare the
// BM_SearchRun counters directly:
//
//   ./build/bench/bench_telemetry_overhead --benchmark_repetitions=3
#include <benchmark/benchmark.h>

#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/spaces.hpp"

namespace {

using namespace ncnas;

const data::Dataset& small_dataset() {
  static const data::Dataset ds = [] {
    data::Nt3Dims dims;
    dims.train = 64;
    dims.valid = 32;
    dims.length = 64;
    dims.motif = 6;
    return data::make_nt3(5, dims);
  }();
  return ds;
}

nas::SearchConfig small_search_config() {
  nas::SearchConfig cfg;
  cfg.strategy = nas::SearchStrategy::kA3C;
  cfg.cluster = {.num_agents = 3, .workers_per_agent = 4};
  cfg.wall_time_seconds = 900.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = 11;
  return cfg;
}

void BM_SearchRun_NullTelemetry(benchmark::State& state) {
  const space::SearchSpace sp = space::nt3_small_space();
  const data::Dataset& ds = small_dataset();
  const nas::SearchConfig cfg = small_search_config();
  std::size_t evals = 0;
  for (auto _ : state) {
    nas::SearchResult res = nas::SearchDriver(sp, ds, cfg).run();
    evals += res.evals.size();
    benchmark::DoNotOptimize(res.end_time);
  }
  state.counters["evals"] =
      benchmark::Counter(static_cast<double>(evals), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SearchRun_NullTelemetry)->Unit(benchmark::kMillisecond);

void BM_SearchRun_WithTelemetry(benchmark::State& state) {
  const space::SearchSpace sp = space::nt3_small_space();
  const data::Dataset& ds = small_dataset();
  std::size_t evals = 0;
  for (auto _ : state) {
    obs::Telemetry telemetry;  // fresh sink per run, like a real deployment
    nas::SearchConfig cfg = small_search_config();
    cfg.telemetry = &telemetry;
    nas::SearchResult res = nas::SearchDriver(sp, ds, cfg).run();
    evals += res.evals.size();
    benchmark::DoNotOptimize(res.end_time);
  }
  state.counters["evals"] =
      benchmark::Counter(static_cast<double>(evals), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SearchRun_WithTelemetry)->Unit(benchmark::kMillisecond);

void BM_SearchRun_WithJournalAndWatchdog(benchmark::State& state) {
  // The heaviest observation configuration: metrics + the event fold +
  // structured journal + the watchdog subscriber re-checking every event.
  const space::SearchSpace sp = space::nt3_small_space();
  const data::Dataset& ds = small_dataset();
  std::size_t evals = 0;
  std::size_t journal_events = 0;
  for (auto _ : state) {
    obs::Telemetry telemetry;
    telemetry.enable_journal();
    telemetry.enable_watchdog();
    nas::SearchConfig cfg = small_search_config();
    cfg.telemetry = &telemetry;
    nas::SearchResult res = nas::SearchDriver(sp, ds, cfg).run();
    evals += res.evals.size();
    journal_events += telemetry.journal()->size();
    benchmark::DoNotOptimize(res.end_time);
  }
  state.counters["evals"] =
      benchmark::Counter(static_cast<double>(evals), benchmark::Counter::kAvgIterations);
  state.counters["journal_events"] = benchmark::Counter(
      static_cast<double>(journal_events), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SearchRun_WithJournalAndWatchdog)->Unit(benchmark::kMillisecond);

void BM_SearchRun_WithExporter(benchmark::State& state) {
  // The live telemetry plane on top of journal + watchdog: a publication
  // every 60 virtual seconds snapshotting metrics and the watchdog and
  // rendering the OpenMetrics/JSON payloads (no HTTP socket —
  // serving is wall-clock-bound, not search-bound). Acceptance: within 5%
  // of NullTelemetry, same as the profiler configuration.
  const space::SearchSpace sp = space::nt3_small_space();
  const data::Dataset& ds = small_dataset();
  std::size_t evals = 0;
  std::size_t publications = 0;
  for (auto _ : state) {
    obs::Telemetry telemetry;
    telemetry.enable_journal();
    telemetry.enable_watchdog();
    obs::ExporterConfig ecfg;
    ecfg.cadence_seconds = 60.0;
    telemetry.enable_exporter(std::move(ecfg));
    nas::SearchConfig cfg = small_search_config();
    cfg.telemetry = &telemetry;
    nas::SearchResult res = nas::SearchDriver(sp, ds, cfg).run();
    evals += res.evals.size();
    publications += telemetry.exporter()->publications();
    benchmark::DoNotOptimize(res.end_time);
  }
  state.counters["evals"] =
      benchmark::Counter(static_cast<double>(evals), benchmark::Counter::kAvgIterations);
  state.counters["publications"] = benchmark::Counter(
      static_cast<double>(publications), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SearchRun_WithExporter)->Unit(benchmark::kMillisecond);

void BM_SearchRun_WithProfiler(benchmark::State& state) {
  // Every NCNAS_PROF_SCOPE in the stack live: per-kernel, per-graph-op,
  // trainer phases, driver phases. Must stay within 5% of NullTelemetry.
  const space::SearchSpace sp = space::nt3_small_space();
  const data::Dataset& ds = small_dataset();
  std::size_t evals = 0;
  std::size_t scopes = 0;
  for (auto _ : state) {
    obs::Telemetry telemetry;
    telemetry.enable_profiler();
    nas::SearchConfig cfg = small_search_config();
    cfg.telemetry = &telemetry;
    nas::SearchResult res = nas::SearchDriver(sp, ds, cfg).run();
    evals += res.evals.size();
    scopes += res.telemetry->profile.flat().size();
    benchmark::DoNotOptimize(res.end_time);
  }
  state.counters["evals"] =
      benchmark::Counter(static_cast<double>(evals), benchmark::Counter::kAvgIterations);
  state.counters["profile_scopes"] =
      benchmark::Counter(static_cast<double>(scopes), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SearchRun_WithProfiler)->Unit(benchmark::kMillisecond);

// The instrument primitives themselves, for the per-event cost picture.
void BM_CounterInc(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  for (auto _ : state) c.inc();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h", obs::exp_buckets(0.001, 2.0, 20));
  double v = 0.0;
  for (auto _ : state) {
    h.observe(v);
    v += 0.37;
    if (v > 1000.0) v = 0.0;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_JournalAppend(benchmark::State& state) {
  obs::Journal journal(1 << 16);
  double t = 0.0;
  for (auto _ : state) {
    journal.append(obs::JournalEventType::kEvalFinished, t, 0,
                   {{"reward", 0.5}, {"duration_s", 20.0}, {"timed_out", 0.0}});
    t += 1.0;
  }
  benchmark::DoNotOptimize(journal.size());
}
BENCHMARK(BM_JournalAppend);

void BM_ProfileScope(benchmark::State& state) {
  obs::Profiler profiler;
  const obs::ProfilerInstallGuard guard(&profiler);
  for (auto _ : state) {
    obs::ProfileScope scope("bench");
    benchmark::DoNotOptimize(&scope);
  }
  benchmark::DoNotOptimize(profiler.snapshot().flat().size());
}
BENCHMARK(BM_ProfileScope);

void BM_ProfileScopeDisabled(benchmark::State& state) {
  // No profiler installed: the scope must compile down to two atomic loads.
  for (auto _ : state) {
    obs::ProfileScope scope("bench");
    benchmark::DoNotOptimize(&scope);
  }
}
BENCHMARK(BM_ProfileScopeDisabled);

}  // namespace
