#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <sstream>

#include "kill_after.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/space/spaces.hpp"
#include "pending_training.hpp"

namespace ncnas::nas {
namespace {

data::Dataset tiny_nt3() {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(5, dims);
}

SearchConfig small_config(SearchStrategy strategy) {
  SearchConfig cfg;
  cfg.strategy = strategy;
  cfg.cluster = {.num_agents = 3, .workers_per_agent = 4};
  cfg.wall_time_seconds = 1800.0;  // 30 simulated minutes
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = 11;
  return cfg;
}

TEST(Driver, RandomSearchProducesOrderedEvaluations) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchDriver driver(s, ds, small_config(SearchStrategy::kRandom));
  const SearchResult res = driver.run();
  EXPECT_GT(res.evals.size(), 10u);
  for (std::size_t i = 1; i < res.evals.size(); ++i) {
    EXPECT_LE(res.evals[i - 1].time, res.evals[i].time);
  }
  EXPECT_LE(res.end_time, 1800.0 + 1e-6);
  EXPECT_GT(res.unique_archs, 0u);
  EXPECT_EQ(res.ppo_updates, 0u);
}

TEST(Driver, A3CRunsPpoUpdates) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchDriver driver(s, ds, small_config(SearchStrategy::kA3C));
  const SearchResult res = driver.run();
  EXPECT_GT(res.ppo_updates, 0u);
  EXPECT_GT(res.evals.size(), 10u);
}

TEST(Driver, A2CRoundsAreSynchronized) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchDriver driver(s, ds, small_config(SearchStrategy::kA2C));
  const SearchResult res = driver.run();
  // Synchronous rounds: PPO update count is a multiple of the agent count,
  // unless the convergence stop fired mid-round (which is legitimate).
  EXPECT_GT(res.ppo_updates, 0u);
  if (!res.converged_early) EXPECT_EQ(res.ppo_updates % 3, 0u);
}

TEST(Driver, DeterministicAcrossRuns) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  cfg.wall_time_seconds = 600.0;
  const SearchResult a = SearchDriver(s, ds, cfg).run();
  const SearchResult b = SearchDriver(s, ds, cfg).run();
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    EXPECT_EQ(a.evals[i].reward, b.evals[i].reward);
    EXPECT_EQ(a.evals[i].arch, b.evals[i].arch);
    EXPECT_DOUBLE_EQ(a.evals[i].time, b.evals[i].time);
  }
}

TEST(Driver, DeterministicWithThreadPool) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  cfg.wall_time_seconds = 600.0;
  tensor::ThreadPool pool(4);
  const SearchResult serial = SearchDriver(s, ds, cfg).run();
  const SearchResult parallel = SearchDriver(s, ds, cfg, &pool).run();
  ASSERT_EQ(serial.evals.size(), parallel.evals.size());
  for (std::size_t i = 0; i < serial.evals.size(); ++i) {
    EXPECT_EQ(serial.evals[i].reward, parallel.evals[i].reward);
  }
}

// ---- pool invariance --------------------------------------------------------
// The pool only decides where and when trainings run. Every record, counter
// and journal event must come out the same with trainings inline, on one
// pool thread, and overlapping on four, whatever the search does around them.

enum class Variant { kPlain, kFaults, kSharedCache, kLadder, kJournal };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kFaults: return "fault plan";
    case Variant::kSharedCache: return "shared cache";
    case Variant::kLadder: return "ladder";
    case Variant::kJournal: return "journal";
  }
  return "?";
}

exec::FaultPlan pool_fault_plan() {
  exec::FaultPlan plan;
  plan.seed = 7;
  plan.eval_failure_prob = 0.25;
  plan.lost_result_prob = 0.1;
  plan.ps_drop_prob = 0.2;
  plan.ps_delay_prob = 0.2;
  plan.ps_delay_seconds = 15.0;
  plan.max_retries = 1;
  plan.barrier_timeout_seconds = 120.0;
  plan.worker_crashes.push_back({.agent = 1, .worker = 0, .time = 150.0});
  return plan;
}

struct Observed {
  SearchResult result;
  std::vector<obs::JournalEvent> journal;  ///< empty unless the variant journals
};

/// `slice` > 0 advances the search in slices of that many virtual seconds
/// before run() takes it to its end.
Observed run_variant(const space::SearchSpace& s, const data::Dataset& ds,
                     SearchStrategy strategy, Variant variant, tensor::ThreadPool* pool,
                     double slice = 0.0) {
  SearchConfig cfg = small_config(strategy);
  cfg.wall_time_seconds = 300.0;
  const exec::FaultInjector faults(pool_fault_plan());
  exec::SharedEvalCache shared;
  obs::Telemetry tel;
  switch (variant) {
    case Variant::kPlain: break;
    case Variant::kFaults: cfg.faults = &faults; break;
    case Variant::kSharedCache: cfg.shared_cache = &shared; break;
    case Variant::kLadder:
      cfg.ladder.eta = 2;
      cfg.ladder.rungs = {{.epochs = 1, .subset_fraction = 1.0},
                          {.epochs = 2, .subset_fraction = 1.0}};
      break;
    case Variant::kJournal:
      tel.enable_journal();
      cfg.telemetry = &tel;
      break;
  }
  SearchDriver driver(s, ds, cfg, pool);
  if (slice > 0.0) {
    for (double until = slice; !driver.advance(until);) until += slice;
  }
  Observed out{driver.run(), {}};
  if (variant == Variant::kJournal) out.journal = tel.journal()->snapshot();
  return out;
}

class PoolInvariance : public ::testing::TestWithParam<SearchStrategy> {};

TEST_P(PoolInvariance, SameSearchInlineOnOneThreadAndOnFour) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  tensor::ThreadPool one(1);
  tensor::ThreadPool four(4);
  for (const Variant variant : {Variant::kPlain, Variant::kFaults, Variant::kSharedCache,
                                Variant::kLadder, Variant::kJournal}) {
    SCOPED_TRACE(variant_name(variant));
    const Observed inline_run = run_variant(s, ds, GetParam(), variant, nullptr);
    ASSERT_FALSE(inline_run.result.evals.empty());
    for (tensor::ThreadPool* pool : {&one, &four}) {
      SCOPED_TRACE(std::to_string(pool->thread_count()) + " pool thread(s)");
      const Observed pooled = run_variant(s, ds, GetParam(), variant, pool);
      pending::expect_same_search(inline_run.result, pooled.result);
      pending::expect_same_journal(inline_run.journal, pooled.journal);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, PoolInvariance,
                         ::testing::Values(SearchStrategy::kA3C, SearchStrategy::kA2C,
                                           SearchStrategy::kRandom, SearchStrategy::kEvolution),
                         [](const ::testing::TestParamInfo<SearchStrategy>& info) {
                           return std::string(strategy_name(info.param));
                         });

// A paused driver keeps the whole search, so advancing it in slices and
// then running it to the end is running it.
TEST(Driver, AdvanceInSlicesMatchesRun) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  tensor::ThreadPool four(4);
  for (const SearchStrategy strategy : {SearchStrategy::kA3C, SearchStrategy::kA2C,
                                        SearchStrategy::kRandom, SearchStrategy::kEvolution}) {
    for (const Variant variant :
         {Variant::kPlain, Variant::kFaults, Variant::kLadder, Variant::kSharedCache}) {
      SCOPED_TRACE(std::string(strategy_name(strategy)) + " " + variant_name(variant));
      const Observed whole = run_variant(s, ds, strategy, variant, &four);
      ASSERT_FALSE(whole.result.evals.empty());
      const Observed sliced = run_variant(s, ds, strategy, variant, &four, /*slice=*/40.0);
      pending::expect_same_search(whole.result, sliced.result);
    }
  }
}

TEST(Driver, AdvanceAndRunThrowOnceRunReturned) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  cfg.wall_time_seconds = 300.0;
  SearchDriver driver(s, ds, cfg);
  EXPECT_EQ(driver.summary().evals, 0u);
  EXPECT_FALSE(driver.advance(60.0));
  EXPECT_GE(driver.virtual_time(), 60.0);
  EXPECT_GT(driver.summary().evals, 0u);
  const SearchResult res = driver.run();
  EXPECT_EQ(driver.summary().evals, res.evals.size());
  EXPECT_THROW((void)driver.run(), std::logic_error);
  EXPECT_THROW((void)driver.advance(600.0), std::logic_error);
}

// A shared-cache hit made while the entry's training is still pending
// shares that training's handle and gets the inline run's reward. The gate
// holds every training of the first dispatch round, in which agents already
// hit each other's entries in the four-architecture space.
TEST(PendingTraining, SharedHitGetsTheInlineReward) {
  const space::SearchSpace s = pending::four_arch_space();
  const data::Dataset ds = tiny_nt3();
  const auto run = [&](tensor::ThreadPool* pool, pending::GatedPool* gate,
                       std::size_t open_after) {
    exec::SharedEvalCache shared;
    obs::Telemetry tel;
    tel.enable_journal();
    if (gate != nullptr) pending::open_after_events(*tel.journal(), *gate, open_after);
    SearchConfig cfg = small_config(SearchStrategy::kRandom);
    cfg.shared_cache = &shared;
    cfg.telemetry = &tel;
    SearchResult result = SearchDriver(s, ds, cfg, pool).run();
    return std::make_pair(std::move(result), tel.journal()->snapshot());
  };
  const auto [reference, journal] = run(nullptr, nullptr, 0);
  const std::size_t open_after = pending::events_before_first_harvest(journal);

  pending::GatedPool gate;
  const SearchResult gated = run(gate.pool(), &gate, open_after).first;
  pending::expect_same_search(reference, gated);

  // The scenario this test exists for: a first-round record served by
  // another agent's entry, whose training the gate still held.
  std::size_t pending_hits = 0;
  for (const EvalRecord& e : pending::first_batches(gated, 4)) pending_hits += e.shared_hit;
  EXPECT_GT(pending_hits, 0u);
}

// An agent's PPO update starts on the pool once its own batch's rewards
// exist, and it may then read a shared hit whose training another agent
// submitted and the gate still holds. The update waits for that training
// (the pool starts tasks in submission order) and learns from the inline
// run's reward: records and journal, PPO stats included, come out the same.
TEST(PendingTraining, UpdateWaitsForAnotherAgentsPendingTraining) {
  const space::SearchSpace s = pending::four_arch_space();
  const data::Dataset ds = tiny_nt3();
  const auto run = [&](tensor::ThreadPool* pool, pending::GatedPool* gate,
                       std::size_t open_after) {
    exec::SharedEvalCache shared;
    obs::Telemetry tel;
    tel.enable_journal();
    if (gate != nullptr) pending::open_after_events(*tel.journal(), *gate, open_after);
    SearchConfig cfg = small_config(SearchStrategy::kA3C);
    cfg.wall_time_seconds = 600.0;
    cfg.shared_cache = &shared;
    cfg.telemetry = &tel;
    SearchResult result = SearchDriver(s, ds, cfg, pool).run();
    return std::make_pair(std::move(result), tel.journal()->snapshot());
  };
  const auto [reference, reference_journal] = run(nullptr, nullptr, 0);
  const std::size_t open_after = pending::events_before_first_harvest(reference_journal);

  pending::GatedPool gate;
  const auto [gated, gated_journal] = run(gate.pool(), &gate, open_after);
  pending::expect_same_search(reference, gated);
  pending::expect_same_journal(reference_journal, gated_journal);
  EXPECT_GT(gated.ppo_updates, 0u);

  // The scenario this test exists for: a first-round batch holding a hit on
  // another agent's entry, whose training the gate still held when the
  // batch's records were final and its update could start.
  std::size_t pending_hits = 0;
  for (const EvalRecord& e : pending::first_batches(gated, 4)) pending_hits += e.shared_hit;
  EXPECT_GT(pending_hits, 0u);
}

TEST(Driver, UtilizationBounded) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchDriver driver(s, ds, small_config(SearchStrategy::kRandom));
  const SearchResult res = driver.run();
  ASSERT_FALSE(res.utilization.empty());
  for (double u : res.utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

TEST(Driver, MaxEvaluationsCapRespected) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kRandom);
  cfg.max_evaluations = 20;
  const SearchResult res = SearchDriver(s, ds, cfg).run();
  std::size_t real = 0;
  for (const EvalRecord& e : res.evals) real += !e.cache_hit;
  EXPECT_LE(real, 20u + cfg.cluster.num_agents * cfg.cluster.workers_per_agent);
}

TEST(Driver, FreshEvaluationsAreNotMarkedCached) {
  // Regression: first-occurrence evaluations must count as real worker tasks,
  // not cache hits (random search over a ~6e8 space basically never repeats).
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kRandom);
  cfg.wall_time_seconds = 600.0;
  const SearchResult res = SearchDriver(s, ds, cfg).run();
  ASSERT_GT(res.evals.size(), 0u);
  EXPECT_EQ(res.cache_hits, 0u);
  EXPECT_FALSE(res.converged_early);
  for (const EvalRecord& e : res.evals) EXPECT_FALSE(e.cache_hit);
}

TEST(Driver, BestSoFarIsMonotone) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const SearchResult res = SearchDriver(s, ds, small_config(SearchStrategy::kRandom)).run();
  const auto best = res.best_so_far();
  for (std::size_t i = 1; i < best.size(); ++i) {
    EXPECT_GE(best[i].second, best[i - 1].second);
  }
}

TEST(Driver, TopKUniqueAndSorted) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const SearchResult res = SearchDriver(s, ds, small_config(SearchStrategy::kRandom)).run();
  const auto top = res.top_k(5);
  ASSERT_LE(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].reward, top[i].reward);
    EXPECT_NE(space::arch_key(top[i - 1].arch), space::arch_key(top[i].arch));
  }
}

TEST(Driver, TopKExcludesTimedOutAndFailedRecords) {
  // Floored rewards — timeout kills and retry-exhausted dispatches — are not
  // measurements and must never rank, even when they numerically beat a real
  // (bad) evaluation.
  SearchResult res;
  EvalRecord good;
  good.reward = 0.4f;
  good.arch = {1};
  EvalRecord timed_out;
  timed_out.reward = 0.9f;
  timed_out.timed_out = true;
  timed_out.arch = {2};
  EvalRecord failed;
  failed.reward = 0.9f;
  failed.failed = true;
  failed.arch = {3};
  res.evals = {timed_out, good, failed};
  const auto top = res.top_k(3);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].arch, good.arch);
  EXPECT_EQ(top[0].reward, 0.4f);
}

TEST(Driver, RejectsEmptyCluster) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kRandom);
  cfg.cluster.num_agents = 0;
  EXPECT_THROW(SearchDriver(s, ds, cfg), std::invalid_argument);
}

TEST(StrategyName, AllNamed) {
  EXPECT_STREQ(strategy_name(SearchStrategy::kA3C), "A3C");
  EXPECT_STREQ(strategy_name(SearchStrategy::kA2C), "A2C");
  EXPECT_STREQ(strategy_name(SearchStrategy::kRandom), "RDM");
  EXPECT_STREQ(strategy_name(SearchStrategy::kEvolution), "EVO");
}

TEST(Driver, PsHistogramsAreFoldedFromExchangeEvents) {
  // The staleness and barrier-wait histograms restate the ps_exchange
  // payloads, and the sim-duration histogram the duration_s of each
  // eval_finished inside the deadline: count, buckets and sum follow from
  // the journal alone.
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const std::vector<double> wait_bounds = obs::exp_buckets(1.0, 2.0, 14);
  const std::vector<double> staleness_bounds = {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};
  for (const SearchStrategy strategy : {SearchStrategy::kA3C, SearchStrategy::kA2C}) {
    SCOPED_TRACE(strategy_name(strategy));
    obs::Telemetry tel;
    tel.enable_journal();
    SearchConfig cfg = small_config(strategy);
    cfg.telemetry = &tel;
    (void)SearchDriver(s, ds, cfg).run();

    std::vector<double> waits;
    std::vector<double> staleness;
    std::vector<double> sim_durations;
    for (const obs::JournalEvent& e : tel.journal()->snapshot()) {
      if (e.type == obs::JournalEventType::kEvalFinished && e.t <= cfg.wall_time_seconds) {
        sim_durations.push_back(e.field("duration_s"));
      }
      if (e.type != obs::JournalEventType::kPsExchange) continue;
      if (e.field("mode") == 0.0) {
        waits.push_back(e.field("wait_s"));
      } else {
        staleness.push_back(e.field("staleness"));
      }
    }
    EXPECT_FALSE(strategy == SearchStrategy::kA3C ? staleness.empty() : waits.empty());

    const obs::MetricsSnapshot m = tel.metrics_snapshot();
    const auto expect_folded = [&](const char* name, const std::vector<double>& bounds,
                                   const std::vector<double>& values) {
      SCOPED_TRACE(name);
      const obs::HistogramSample* h = m.histogram(name);
      ASSERT_NE(h, nullptr);
      EXPECT_EQ(h->bounds, bounds);
      EXPECT_EQ(h->count, values.size());
      std::vector<std::uint64_t> buckets(bounds.size() + 1, 0);
      double sum = 0.0;
      for (const double v : values) {
        ++buckets[static_cast<std::size_t>(std::ranges::lower_bound(bounds, v) - bounds.begin())];
        sum += v;
      }
      EXPECT_EQ(h->buckets, buckets);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(h->sum), std::bit_cast<std::uint64_t>(sum));
    };
    expect_folded("ncnas_a2c_barrier_wait_seconds", wait_bounds, waits);
    expect_folded("ncnas_a3c_gradient_staleness_updates", staleness_bounds, staleness);
    expect_folded("ncnas_eval_sim_duration_seconds", obs::exp_buckets(4.0, 2.0, 14),
                  sim_durations);
    EXPECT_EQ(sim_durations.size(), m.counter_value("ncnas_real_evals_total"));
  }
}

TEST(Driver, TelemetryCountersReconcileWithResult) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  obs::Telemetry tel;
  tel.enable_journal();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  cfg.telemetry = &tel;
  const SearchResult res = SearchDriver(s, ds, cfg).run();

  EXPECT_TRUE(res.telemetry_enabled);
  ASSERT_NE(res.telemetry, nullptr);
  const obs::MetricsSnapshot& m = res.telemetry->metrics;

  const std::uint64_t evals = m.counter_value("ncnas_evals_total");
  const std::uint64_t hits = m.counter_value("ncnas_cache_hits_total");
  const std::uint64_t real = m.counter_value("ncnas_real_evals_total");
  EXPECT_GT(evals, 0u);
  EXPECT_EQ(evals, res.evals.size());
  EXPECT_EQ(evals, hits + real);
  EXPECT_EQ(hits, res.cache_hits);
  EXPECT_EQ(m.counter_value("ncnas_eval_timeouts_total"), res.timeouts);
  EXPECT_EQ(m.counter_value("ncnas_ppo_updates_total"), res.ppo_updates);
  // Each update is timed once, when its batch is harvested.
  const obs::HistogramSample* ppo_wall = m.histogram("ncnas_ppo_update_wall_ms");
  ASSERT_NE(ppo_wall, nullptr);
  EXPECT_EQ(ppo_wall->count, m.counter_value("ncnas_ppo_updates_total"));

  // Every real evaluation landed exactly one sample in the sim-duration
  // histogram, and its simulated seconds sum to the histogram's sum.
  const obs::HistogramSample* sim = m.histogram("ncnas_eval_sim_duration_seconds");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->count, real);
  EXPECT_GT(m.counter_value("ncnas_agent_cycles_total"), 0u);
  EXPECT_GT(m.counter_value("ncnas_ps_delta_applies_total"), 0u);
  EXPECT_GT(m.counter_value("ncnas_ps_exchanges_total"), 0u);

  // The journal replay tells the same story as the result.
  const obs::RunSummary sum = obs::summarize_journal(res.telemetry->journal);
  EXPECT_EQ(reconcile(res, sum), std::vector<std::string>{});
  EXPECT_EQ(sum.ps_exchanges, m.counter_value("ncnas_ps_exchanges_total"));
}

TEST(Driver, TelemetryTraceHasCycleSpansPerAgent) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  obs::Telemetry tel;
  tel.enable_journal();  // the trace is rendered from the recorded journal
  SearchConfig cfg = small_config(SearchStrategy::kA2C);
  cfg.telemetry = &tel;
  (void)SearchDriver(s, ds, cfg).run();

  std::ostringstream os;
  tel.export_chrome_trace(os);
  // One event per line; count the eval spans per row (tid = agent id).
  std::vector<std::size_t> eval_spans(cfg.cluster.num_agents, 0);
  std::size_t barrier_spans = 0;
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    const bool eval = line.find("\"name\":\"eval\",") != std::string::npos;
    const bool barrier = line.find("\"name\":\"a2c_barrier_wait\",") != std::string::npos;
    if (!eval && !barrier) continue;
    EXPECT_NE(line.find("\"ph\":\"X\""), std::string::npos) << line;
    const std::size_t at = line.find("\"tid\":");
    ASSERT_NE(at, std::string::npos) << line;
    const std::size_t tid = std::stoul(line.substr(at + 6));
    ASSERT_LT(tid, eval_spans.size());
    if (eval) ++eval_spans[tid];
    if (barrier) ++barrier_spans;
  }
  for (std::size_t n : eval_spans) EXPECT_GE(n, 1u);
  EXPECT_GT(barrier_spans, 0u);
}

// SearchResult's cache_hits, shared_cache_hits and timeouts count the
// returned records, so records the deadline cuts are not counted either.
TEST(Driver, DeadlineCutRecordsAreNotCountedInResultCounters) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  bool saw_cut_cached_record = false;
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    SearchConfig cfg = small_config(SearchStrategy::kA3C);
    cfg.cluster = {.num_agents = 4, .workers_per_agent = 2};
    cfg.wall_time_seconds = 900.0;
    cfg.seed = seed;
    obs::Telemetry tel;
    tel.enable_journal();
    cfg.telemetry = &tel;
    const SearchResult res = SearchDriver(s, ds, cfg).run();
    for (const obs::JournalEvent& e : res.telemetry->journal) {
      saw_cut_cached_record |=
          e.type == obs::JournalEventType::kEvalCached && e.t > cfg.wall_time_seconds;
    }
    std::size_t hits = 0, shared = 0, timeouts = 0;
    for (const EvalRecord& e : res.evals) {
      hits += e.cache_hit ? 1 : 0;
      shared += e.shared_hit ? 1 : 0;
      timeouts += e.timed_out ? 1 : 0;
    }
    EXPECT_EQ(res.cache_hits, hits) << "seed " << seed;
    EXPECT_EQ(res.shared_cache_hits, shared) << "seed " << seed;
    EXPECT_EQ(res.timeouts, timeouts) << "seed " << seed;
    EXPECT_EQ(reconcile(res, obs::summarize_journal(res.telemetry->journal)),
              std::vector<std::string>{})
        << "seed " << seed;
  }
  // The scenario this test exists for must actually occur.
  EXPECT_TRUE(saw_cut_cached_record);
}

// Every counter that is a view of the event fold equals the same field of a
// replay of the recorded journal, for every strategy, a fault plan, a
// ladder, and a resumed process.
TEST(Driver, FoldCountersEqualJournalSummary) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const auto expect_counters_match = [](const obs::Telemetry& tel, const std::string& what) {
    const obs::MetricsSnapshot m = tel.metrics_snapshot();
    const obs::RunSummary sum = obs::summarize_journal(tel.journal()->snapshot());
    const std::pair<const char*, std::size_t> expected[] = {
        {"ncnas_evals_total", sum.evals},
        {"ncnas_cache_hits_total", sum.cache_hits},
        {"ncnas_shared_cache_hits_total", sum.shared_cache_hits},
        {"ncnas_real_evals_total", sum.real_evals},
        {"ncnas_eval_timeouts_total", sum.timeouts},
        {"ncnas_ppo_updates_total", sum.ppo_updates},
        {"ncnas_fault_eval_failures_total", sum.eval_failures},
        {"ncnas_fault_retries_total", sum.retries},
        {"ncnas_fault_exhausted_total", sum.exhausted},
        {"ncnas_fault_lost_results_total", sum.lost_results},
        {"ncnas_fault_workers_crashed_total", sum.crashed_workers},
        {"ncnas_fault_dead_agents_total", sum.dead_agents},
        {"ncnas_fault_ps_dropped_total", sum.ps_dropped},
        {"ncnas_fault_ps_delayed_total", sum.ps_delayed},
        {"ncnas_checkpoints_total", sum.checkpoints},
        {"ncnas_fidelity_rung_trainings_total", sum.ladder_trainings},
        {"ncnas_fidelity_promotions_total", sum.ladder_promotions},
        {"ncnas_fidelity_warm_starts_total", sum.ladder_warm_starts},
        {"ncnas_fidelity_rung_hits_total", sum.ladder_rung_hits},
        {"ncnas_ps_exchanges_total", sum.ps_exchanges},
        {"ncnas_a2c_barrier_timeouts_total", sum.barrier_timeouts},
        {"ncnas_watchdog_stragglers_total", sum.stragglers},
        {"ncnas_watchdog_stalls_total", sum.stalls},
    };
    for (const auto& [name, value] : expected) {
      const bool present = std::any_of(m.counters.begin(), m.counters.end(),
                                       [&](const obs::CounterSample& c) { return c.name == name; });
      EXPECT_TRUE(present) << what << ": " << name;
      EXPECT_EQ(m.counter_value(name), value) << what << ": " << name;
    }
    EXPECT_GT(sum.evals, 0u) << what;
  };
  const auto run = [&](SearchConfig cfg, const std::string& what) {
    obs::Telemetry tel;
    tel.enable_watchdog();  // verdicts are folded too
    cfg.telemetry = &tel;
    (void)SearchDriver(s, ds, cfg).run();
    expect_counters_match(tel, what);
  };

  for (const SearchStrategy strategy : {SearchStrategy::kA3C, SearchStrategy::kA2C,
                                        SearchStrategy::kRandom, SearchStrategy::kEvolution}) {
    SearchConfig cfg = small_config(strategy);
    cfg.wall_time_seconds = 600.0;
    run(cfg, strategy_name(strategy));
  }

  exec::FaultPlan plan;
  plan.seed = 7;
  plan.eval_failure_prob = 0.25;
  plan.lost_result_prob = 0.1;
  plan.ps_drop_prob = 0.2;
  plan.ps_delay_prob = 0.2;
  plan.ps_delay_seconds = 15.0;
  plan.max_retries = 1;
  plan.barrier_timeout_seconds = 120.0;
  plan.worker_crashes.push_back({.agent = 1, .worker = 0, .time = 300.0});
  const exec::FaultInjector faults(plan);
  SearchConfig faulty = small_config(SearchStrategy::kA2C);
  faulty.wall_time_seconds = 600.0;
  faulty.faults = &faults;
  run(faulty, "fault plan");

  SearchConfig ladder = small_config(SearchStrategy::kA3C);
  ladder.wall_time_seconds = 600.0;
  ladder.ladder.eta = 2;
  ladder.ladder.rungs = {{.epochs = 1, .subset_fraction = 1.0},
                         {.epochs = 2, .subset_fraction = 1.0}};
  run(ladder, "ladder");

  // A resumed process folds (and records) only its own events.
  ckpt::CheckpointConfig ckpt_cfg;
  ckpt_cfg.directory = ::testing::TempDir() + "ncnas_driver_fold_resume";
  std::filesystem::remove_all(ckpt_cfg.directory);
  ckpt_cfg.interval_seconds = 120.0;
  SearchConfig resumed = small_config(SearchStrategy::kA3C);
  resumed.wall_time_seconds = 600.0;
  resumed.checkpoint = &ckpt_cfg;
  const std::string snapshot = testing::kill_after(s, ds, resumed, 2);
  ASSERT_FALSE(snapshot.empty());
  obs::Telemetry tel;
  tel.enable_journal();
  resumed.telemetry = &tel;
  (void)resume_search(snapshot, s, ds, resumed);
  EXPECT_EQ(obs::summarize_journal(tel.journal()->snapshot()).resumes, 1u);
  expect_counters_match(tel, "resumed");
  std::filesystem::remove_all(ckpt_cfg.directory);
}

TEST(Driver, TelemetryDisabledLeavesResultsBitIdentical) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  cfg.wall_time_seconds = 600.0;
  const SearchResult plain = SearchDriver(s, ds, cfg).run();
  obs::Telemetry tel;
  tel.enable_journal();   // the heaviest observation configuration:
  tel.enable_watchdog();  // journal + watchdog must still not perturb results
  cfg.telemetry = &tel;
  const SearchResult observed = SearchDriver(s, ds, cfg).run();

  EXPECT_FALSE(plain.telemetry_enabled);
  EXPECT_EQ(plain.telemetry, nullptr);
  ASSERT_EQ(plain.evals.size(), observed.evals.size());
  for (std::size_t i = 0; i < plain.evals.size(); ++i) {
    EXPECT_EQ(plain.evals[i].reward, observed.evals[i].reward);
    EXPECT_EQ(plain.evals[i].arch, observed.evals[i].arch);
    EXPECT_DOUBLE_EQ(plain.evals[i].time, observed.evals[i].time);
  }
  EXPECT_EQ(plain.cache_hits, observed.cache_hits);
  EXPECT_EQ(plain.ppo_updates, observed.ppo_updates);
  EXPECT_DOUBLE_EQ(plain.end_time, observed.end_time);
}

TEST(Driver, ProfilerOnOffLeavesResultsBitIdentical) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  for (const SearchStrategy strategy : {SearchStrategy::kRandom, SearchStrategy::kA3C,
                                        SearchStrategy::kA2C, SearchStrategy::kEvolution}) {
    SearchConfig cfg = small_config(strategy);
    cfg.wall_time_seconds = 600.0;
    const SearchResult plain = SearchDriver(s, ds, cfg).run();

    obs::Telemetry tel;
    tel.enable_profiler();
    cfg.telemetry = &tel;
    const SearchResult profiled = SearchDriver(s, ds, cfg).run();

    ASSERT_EQ(plain.evals.size(), profiled.evals.size());
    for (std::size_t i = 0; i < plain.evals.size(); ++i) {
      EXPECT_EQ(plain.evals[i].reward, profiled.evals[i].reward);
      EXPECT_EQ(plain.evals[i].arch, profiled.evals[i].arch);
      EXPECT_DOUBLE_EQ(plain.evals[i].time, profiled.evals[i].time);
    }
    EXPECT_EQ(plain.cache_hits, profiled.cache_hits);
    EXPECT_EQ(plain.ppo_updates, profiled.ppo_updates);
    EXPECT_DOUBLE_EQ(plain.end_time, profiled.end_time);
    // And the profiler actually saw the run: real training happened inside
    // installed scopes, so the snapshot cannot be empty.
    const obs::ProfileSnapshot prof = tel.profiler()->snapshot();
    EXPECT_FALSE(prof.empty());
    bool saw_eval = false;
    for (const obs::FlatProfileEntry& e : prof.flat()) saw_eval |= e.name == "eval";
    EXPECT_TRUE(saw_eval);
  }
}

}  // namespace
}  // namespace ncnas::nas
