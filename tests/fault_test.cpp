#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>

#include "ncnas/exec/fault.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/obs/journal.hpp"
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
  cfg.wall_time_seconds = 1800.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = 11;
  return cfg;
}

// A plan that exercises every fault shape at once.
exec::FaultPlan chaos_plan() {
  exec::FaultPlan plan;
  plan.seed = 7;
  plan.eval_failure_prob = 0.25;
  plan.slowdown_prob = 0.15;
  plan.slowdown_multiple = 2.0;
  plan.lost_result_prob = 0.10;
  plan.ps_drop_prob = 0.15;
  plan.ps_delay_prob = 0.15;
  plan.ps_delay_seconds = 15.0;
  plan.max_retries = 2;
  plan.backoff_base_seconds = 5.0;
  plan.backoff_cap_seconds = 40.0;
  plan.barrier_timeout_seconds = 120.0;
  plan.worker_crashes.push_back({.agent = 1, .worker = 0, .time = 600.0});
  return plan;
}

void expect_bit_identical(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.evals[i].time, b.evals[i].time) << i;
    EXPECT_EQ(a.evals[i].reward, b.evals[i].reward) << i;
    EXPECT_EQ(a.evals[i].params, b.evals[i].params) << i;
    EXPECT_DOUBLE_EQ(a.evals[i].sim_duration, b.evals[i].sim_duration) << i;
    EXPECT_EQ(a.evals[i].cache_hit, b.evals[i].cache_hit) << i;
    EXPECT_EQ(a.evals[i].timed_out, b.evals[i].timed_out) << i;
    EXPECT_EQ(a.evals[i].failed, b.evals[i].failed) << i;
    EXPECT_EQ(a.evals[i].attempts, b.evals[i].attempts) << i;
    EXPECT_EQ(a.evals[i].agent, b.evals[i].agent) << i;
    EXPECT_EQ(a.evals[i].arch, b.evals[i].arch) << i;
  }
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.converged_early, b.converged_early);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.unique_archs, b.unique_archs);
  EXPECT_EQ(a.ppo_updates, b.ppo_updates);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.lost_results, b.lost_results);
  EXPECT_EQ(a.crashed_workers, b.crashed_workers);
  EXPECT_EQ(a.dead_agents, b.dead_agents);
  ASSERT_EQ(a.utilization.size(), b.utilization.size());
  for (std::size_t i = 0; i < a.utilization.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.utilization[i], b.utilization[i]) << i;
  }
}

// ---- injector unit behavior ------------------------------------------------

TEST(FaultPlan, EmptyDetection) {
  exec::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(exec::FaultInjector(plan).enabled());

  exec::FaultPlan failing;
  failing.eval_failure_prob = 0.1;
  EXPECT_FALSE(failing.empty());
  EXPECT_TRUE(exec::FaultInjector(failing).enabled());

  exec::FaultPlan crashing;
  crashing.worker_crashes.push_back({.agent = 0, .worker = 0, .time = 100.0});
  EXPECT_FALSE(crashing.empty());
  EXPECT_TRUE(exec::FaultInjector(crashing).enabled());
}

TEST(FaultInjector, BackoffIsCappedExponential) {
  exec::FaultPlan plan;
  plan.eval_failure_prob = 1.0;
  plan.backoff_base_seconds = 5.0;
  plan.backoff_cap_seconds = 60.0;
  const exec::FaultInjector fx(plan);
  EXPECT_DOUBLE_EQ(fx.backoff(0), 0.0);
  EXPECT_DOUBLE_EQ(fx.backoff(1), 5.0);
  EXPECT_DOUBLE_EQ(fx.backoff(2), 10.0);
  EXPECT_DOUBLE_EQ(fx.backoff(3), 20.0);
  EXPECT_DOUBLE_EQ(fx.backoff(4), 40.0);
  EXPECT_DOUBLE_EQ(fx.backoff(5), 60.0);   // capped
  EXPECT_DOUBLE_EQ(fx.backoff(12), 60.0);  // stays capped, no overflow
}

TEST(FaultInjector, TaskFaultIsPureAndRespectsProbabilityEndpoints) {
  exec::FaultPlan always;
  always.eval_failure_prob = 1.0;
  const exec::FaultInjector fx_always(always);

  exec::FaultPlan never;
  never.slowdown_prob = 0.0;
  never.worker_crashes.push_back({.agent = 9, .worker = 9, .time = 1.0});  // enable
  const exec::FaultInjector fx_never(never);

  const char* keys[] = {"c3.k5.f16", "c5.k3.f32", "d128.relu", "d64.tanh"};
  for (std::size_t agent = 0; agent < 3; ++agent) {
    for (const char* key : keys) {
      for (std::size_t attempt = 0; attempt < 4; ++attempt) {
        const auto a = fx_always.task_fault(agent, key, attempt);
        const auto b = fx_always.task_fault(agent, key, attempt);
        EXPECT_TRUE(a.fail);
        EXPECT_GE(a.fail_frac, 0.1);
        EXPECT_LE(a.fail_frac, 0.9);
        EXPECT_EQ(a.fail, b.fail);            // pure: same site, same verdict
        EXPECT_EQ(a.fail_frac, b.fail_frac);
        EXPECT_EQ(a.lost, b.lost);
        EXPECT_EQ(a.slowdown, b.slowdown);

        const auto clean = fx_never.task_fault(agent, key, attempt);
        EXPECT_FALSE(clean.fail);
        EXPECT_FALSE(clean.lost);
        EXPECT_DOUBLE_EQ(clean.slowdown, 1.0);
      }
    }
  }
}

TEST(FaultInjector, LostResultExcludesMidRunFailure) {
  exec::FaultPlan plan;
  plan.lost_result_prob = 1.0;
  const exec::FaultInjector fx(plan);
  for (std::size_t attempt = 0; attempt < 4; ++attempt) {
    const auto tf = fx.task_fault(0, "c3.k5.f16", attempt);
    EXPECT_TRUE(tf.lost);
    EXPECT_FALSE(tf.fail);  // a lost result is a *completed* task
  }
}

TEST(FaultInjector, ExchangeFaultEndpointsAndPurity) {
  exec::FaultPlan drops;
  drops.ps_drop_prob = 1.0;
  drops.ps_delay_prob = 1.0;  // drop wins over delay
  const exec::FaultInjector fx(drops);
  for (std::uint64_t round = 0; round < 8; ++round) {
    const auto a = fx.exchange_fault(2, round);
    const auto b = fx.exchange_fault(2, round);
    EXPECT_TRUE(a.drop);
    EXPECT_DOUBLE_EQ(a.delay_seconds, 0.0);
    EXPECT_EQ(a.drop, b.drop);
  }

  exec::FaultPlan delays;
  delays.ps_delay_prob = 1.0;
  delays.ps_delay_seconds = 42.0;
  const exec::FaultInjector fx2(delays);
  const auto ef = fx2.exchange_fault(0, 3);
  EXPECT_FALSE(ef.drop);
  EXPECT_DOUBLE_EQ(ef.delay_seconds, 42.0);
}

TEST(FaultInjector, CrashTimeEarliestWinsAndDefaultsToInfinity) {
  exec::FaultPlan plan;
  plan.worker_crashes.push_back({.agent = 1, .worker = 2, .time = 500.0});
  plan.worker_crashes.push_back({.agent = 1, .worker = 2, .time = 300.0});
  const exec::FaultInjector fx(plan);
  EXPECT_DOUBLE_EQ(fx.crash_time(1, 2), 300.0);
  EXPECT_EQ(fx.crash_time(0, 0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(fx.crash_time(1, 3), std::numeric_limits<double>::infinity());
}

TEST(FaultPlan, FingerprintDistinguishesPlans) {
  const exec::FaultPlan empty;
  exec::FaultPlan a = chaos_plan();
  EXPECT_EQ(a.fingerprint(), chaos_plan().fingerprint());  // stable
  EXPECT_NE(a.fingerprint(), empty.fingerprint());
  exec::FaultPlan b = chaos_plan();
  b.seed = a.seed + 1;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  exec::FaultPlan c = chaos_plan();
  c.worker_crashes.push_back({.agent = 0, .worker = 1, .time = 50.0});
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// ---- driver resilience -----------------------------------------------------

// The headline regression: a null fault plan must leave the driver on its
// original code path with bit-identical results, for every strategy.
TEST(FaultDriver, NullPlanBitIdenticalForAllStrategies) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const exec::FaultInjector null_fx{exec::FaultPlan{}};
  for (SearchStrategy strategy : {SearchStrategy::kA3C, SearchStrategy::kA2C,
                                  SearchStrategy::kRandom, SearchStrategy::kEvolution}) {
    SCOPED_TRACE(strategy_name(strategy));
    SearchConfig cfg = small_config(strategy);
    cfg.wall_time_seconds = 600.0;
    const SearchResult plain = SearchDriver(s, ds, cfg).run();
    cfg.faults = &null_fx;
    const SearchResult injected = SearchDriver(s, ds, cfg).run();
    expect_bit_identical(plain, injected);
    EXPECT_EQ(injected.retries, 0u);
    EXPECT_EQ(injected.crashed_workers, 0u);
  }
}

TEST(FaultDriver, DeterministicUnderSameFaultPlan) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const exec::FaultInjector fx(chaos_plan());
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  cfg.faults = &fx;
  const SearchResult a = SearchDriver(s, ds, cfg).run();
  const SearchResult b = SearchDriver(s, ds, cfg).run();
  expect_bit_identical(a, b);
  // The plan actually bit: at least one fault shape fired.
  EXPECT_GT(a.retries + a.lost_results + a.exhausted, 0u);
  EXPECT_EQ(a.crashed_workers, 1u);
}

TEST(FaultDriver, RetryExhaustionFloorsRecordsAndKeepsThemOutOfTopK) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  exec::FaultPlan plan;
  plan.eval_failure_prob = 1.0;  // every attempt dies mid-run
  plan.max_retries = 1;
  const exec::FaultInjector fx(plan);
  SearchConfig cfg = small_config(SearchStrategy::kRandom);
  cfg.wall_time_seconds = 600.0;
  cfg.faults = &fx;
  const SearchResult res = SearchDriver(s, ds, cfg).run();
  ASSERT_GT(res.evals.size(), 0u);
  for (const EvalRecord& e : res.evals) {
    EXPECT_TRUE(e.failed);
    EXPECT_EQ(e.reward, 0.0f);               // ACC floor, not a measurement
    EXPECT_EQ(e.attempts, plan.max_retries + 1);
  }
  EXPECT_TRUE(res.top_k(10).empty());        // floored rewards never rank
  EXPECT_EQ(res.cache_hits, 0u);             // failures never poison the cache
  EXPECT_GE(res.exhausted, res.evals.size());
  EXPECT_EQ(res.retries, res.exhausted * plan.max_retries);
}

TEST(FaultDriver, LostResultsArePaidForAndRetried) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  exec::FaultPlan plan;
  plan.lost_result_prob = 0.5;
  plan.max_retries = 3;
  const exec::FaultInjector fx(plan);
  SearchConfig cfg = small_config(SearchStrategy::kRandom);
  cfg.wall_time_seconds = 600.0;
  cfg.faults = &fx;
  const SearchResult res = SearchDriver(s, ds, cfg).run();
  EXPECT_GT(res.lost_results, 0u);
  EXPECT_GT(res.retries, 0u);
  // Retried tasks paid for the lost attempts: attempts > 1 somewhere.
  bool any_retried = false;
  for (const EvalRecord& e : res.evals) any_retried |= e.attempts > 1;
  EXPECT_TRUE(any_retried);
}

TEST(FaultDriver, CrashedWorkerPoolKillsAgentButRunSurvives) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  exec::FaultPlan plan;
  for (std::size_t w = 0; w < 4; ++w) {
    plan.worker_crashes.push_back({.agent = 0, .worker = w, .time = 0.0});
  }
  const exec::FaultInjector fx(plan);
  SearchConfig cfg = small_config(SearchStrategy::kA2C);
  cfg.faults = &fx;
  const SearchResult res = SearchDriver(s, ds, cfg).run();
  EXPECT_EQ(res.crashed_workers, 4u);
  EXPECT_EQ(res.dead_agents, 1u);
  // The surviving agents keep searching and keep synchronizing.
  EXPECT_GT(res.evals.size(), 10u);
  EXPECT_GT(res.ppo_updates, 0u);
  bool survivors_evaluated = false;
  for (const EvalRecord& e : res.evals) survivors_evaluated |= e.agent != 0 && !e.failed;
  EXPECT_TRUE(survivors_evaluated);
  // Dead capacity leaves the utilization denominator; buckets stay bounded.
  for (double u : res.utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

TEST(FaultDriver, A3CDroppedExchangesNeverReachTheServer) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  exec::FaultPlan plan;
  plan.ps_drop_prob = 1.0;
  const exec::FaultInjector fx(plan);
  obs::Telemetry tel;
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  cfg.wall_time_seconds = 600.0;
  cfg.faults = &fx;
  cfg.telemetry = &tel;
  const SearchResult res = SearchDriver(s, ds, cfg).run();
  ASSERT_NE(res.telemetry, nullptr);
  const obs::MetricsSnapshot& m = res.telemetry->metrics;
  EXPECT_GT(res.ppo_updates, 0u);  // local PPO still runs
  EXPECT_EQ(m.counter_value("ncnas_ps_delta_applies_total"), 0u);
  EXPECT_GT(m.counter_value("ncnas_fault_ps_dropped_total"), 0u);
}

TEST(FaultDriver, A2CPartialRoundReleasesAfterTimeout) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  exec::FaultPlan plan;
  plan.ps_drop_prob = 0.5;  // some agents arrive, some don't: partial rounds
  plan.barrier_timeout_seconds = 120.0;
  const exec::FaultInjector fx(plan);
  obs::Telemetry tel;
  SearchConfig cfg = small_config(SearchStrategy::kA2C);
  cfg.faults = &fx;
  cfg.telemetry = &tel;
  const SearchResult res = SearchDriver(s, ds, cfg).run();
  ASSERT_NE(res.telemetry, nullptr);
  const obs::MetricsSnapshot& m = res.telemetry->metrics;
  // The run neither deadlocked nor starved: rounds kept coming, and at least
  // one of them was a timeout-forced partial release.
  EXPECT_GT(res.ppo_updates, 0u);
  EXPECT_GT(m.counter_value("ncnas_a2c_barrier_timeouts_total"), 0u);
  EXPECT_GT(m.counter_value("ncnas_ps_delta_applies_total"), 0u);
}

// The acceptance check: a journal replay of a faulty run reconciles exactly
// with the returned SearchResult — evals, retries, and dead-worker requeues.
TEST(FaultDriver, JournalReplayReconcilesWithFaultyResult) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  exec::FaultPlan plan = chaos_plan();
  for (std::size_t w = 0; w < 4; ++w) {  // kill agent 1's pool mid-run
    plan.worker_crashes.push_back({.agent = 1, .worker = w, .time = 300.0});
  }
  const exec::FaultInjector fx(plan);
  obs::Telemetry tel;
  tel.enable_journal();
  SearchConfig cfg = small_config(SearchStrategy::kA2C);
  cfg.faults = &fx;
  cfg.telemetry = &tel;
  const SearchResult res = SearchDriver(s, ds, cfg).run();
  ASSERT_NE(res.telemetry, nullptr);
  EXPECT_EQ(res.dead_agents, 1u);

  // Round-trip the journal through its wire format, as run_report would.
  std::ostringstream os;
  obs::Journal::export_jsonl(res.telemetry->journal, os);
  std::istringstream is(os.str());
  const obs::RunSummary sum = obs::summarize_journal(obs::Journal::import_jsonl(is));

  EXPECT_TRUE(sum.faulty());
  EXPECT_EQ(reconcile(res, sum), std::vector<std::string>{});

  const obs::MetricsSnapshot& m = res.telemetry->metrics;
  EXPECT_EQ(sum.eval_failures, m.counter_value("ncnas_fault_eval_failures_total"));
  EXPECT_EQ(sum.ps_dropped, m.counter_value("ncnas_fault_ps_dropped_total"));
  EXPECT_EQ(sum.ps_delayed, m.counter_value("ncnas_fault_ps_delayed_total"));
  EXPECT_EQ(sum.barrier_timeouts, m.counter_value("ncnas_a2c_barrier_timeouts_total"));
}

// ---- persistence -----------------------------------------------------------

TEST(FaultDriver, FingerprintCoversPlanButNotNullPlan) {
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  const std::string base = config_fingerprint(cfg, "nt3");

  const exec::FaultInjector null_fx{exec::FaultPlan{}};
  cfg.faults = &null_fx;
  EXPECT_EQ(config_fingerprint(cfg, "nt3"), base);  // empty plan: no alias break

  const exec::FaultInjector fx(chaos_plan());
  cfg.faults = &fx;
  const std::string faulty = config_fingerprint(cfg, "nt3");
  EXPECT_NE(faulty, base);
  EXPECT_NE(faulty.find("faults:"), std::string::npos);
}

TEST(FaultDriver, SaveLoadRoundTripsFaultAccounting) {
  SearchResult res;
  res.end_time = 1234.5;
  res.retries = 7;
  res.exhausted = 2;
  res.lost_results = 3;
  res.crashed_workers = 4;
  res.dead_agents = 1;
  res.utilization = {0.5, 0.25};
  EvalRecord ok;
  ok.time = 100.0;
  ok.reward = 0.75f;
  ok.arch = {1, 2, 3};
  ok.attempts = 2;
  EvalRecord floored;
  floored.time = 200.0;
  floored.failed = true;
  floored.attempts = 4;
  floored.arch = {4, 5};
  res.evals = {ok, floored};

  const std::string path =
      (std::filesystem::temp_directory_path() / "ncnas_fault_roundtrip.log").string();
  save_result(path, res, "fp-fault-test");
  const auto loaded = load_result(path, "fp-fault-test");
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->retries, 7u);
  EXPECT_EQ(loaded->exhausted, 2u);
  EXPECT_EQ(loaded->lost_results, 3u);
  EXPECT_EQ(loaded->crashed_workers, 4u);
  EXPECT_EQ(loaded->dead_agents, 1u);
  ASSERT_EQ(loaded->evals.size(), 2u);
  EXPECT_FALSE(loaded->evals[0].failed);
  EXPECT_EQ(loaded->evals[0].attempts, 2u);
  EXPECT_TRUE(loaded->evals[1].failed);
  EXPECT_EQ(loaded->evals[1].attempts, 4u);
}

// An exhausted record erases its cache entries at dispatch, while its
// training may still be pending. When another agent then re-trains the same
// architecture, the stale training must not overwrite the new entry: the
// gated run, where every first-round training is still held when the next
// agent dispatches, matches the inline run record for record, and its shared
// cache ends with the same reward under every key.
TEST(FaultDriver, StaleTrainingNeverOverwritesARetrainedEntry) {
  const space::SearchSpace s = pending::four_arch_space();
  const data::Dataset ds = tiny_nt3();
  exec::FaultPlan plan;
  plan.seed = 1;
  plan.eval_failure_prob = 0.5;
  plan.max_retries = 0;
  const exec::FaultInjector faults(plan);
  SearchConfig cfg = small_config(SearchStrategy::kRandom);
  cfg.wall_time_seconds = 600.0;
  cfg.faults = &faults;
  std::vector<space::ArchEncoding> archs;
  for (std::uint16_t a = 0; a < 2; ++a) {
    for (std::uint16_t b = 0; b < 2; ++b) archs.push_back({a, b});
  }

  struct Run {
    SearchResult result;
    std::vector<obs::JournalEvent> journal;
    std::vector<float> cached;  ///< shared-cache reward per arch; NaN when absent
  };
  const auto run = [&](tensor::ThreadPool* pool, pending::GatedPool* gate,
                       std::size_t open_after) {
    exec::SharedEvalCache shared;
    obs::Telemetry tel;
    tel.enable_journal();
    if (gate != nullptr) pending::open_after_events(*tel.journal(), *gate, open_after);
    SearchConfig c = cfg;
    c.shared_cache = &shared;
    c.telemetry = &tel;
    Run out{SearchDriver(s, ds, c, pool).run(), tel.journal()->snapshot(), {}};
    const std::string ctx = exec::eval_context_key(ds, c.fidelity, c.cost);
    for (const space::ArchEncoding& arch : archs) {
      std::optional<exec::EvalResult> hit = shared.lookup(ctx, space::arch_key(arch), 0);
      if (hit) hit->join();
      out.cached.push_back(hit ? hit->reward : std::numeric_limits<float>::quiet_NaN());
    }
    return out;
  };
  const Run reference = run(nullptr, nullptr, 0);
  pending::GatedPool gate;
  const Run gated =
      run(gate.pool(), &gate, pending::events_before_first_harvest(reference.journal));
  pending::expect_same_search(reference.result, gated.result);
  ASSERT_EQ(reference.cached.size(), gated.cached.size());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    EXPECT_EQ(std::isnan(reference.cached[i]), std::isnan(gated.cached[i])) << i;
    if (!std::isnan(reference.cached[i])) EXPECT_EQ(reference.cached[i], gated.cached[i]) << i;
  }

  // The scenario this test exists for, inside the gated first round: an
  // agent's record of an architecture failed, and a later agent trained the
  // same architecture again.
  const std::vector<EvalRecord> first = pending::first_batches(gated.result, 4);
  bool retrained_while_pending = false;
  for (const EvalRecord& failed : first) {
    if (!failed.failed) continue;
    for (const EvalRecord& again : first) {
      retrained_while_pending |= !again.cache_hit && again.agent > failed.agent &&
                                 again.arch == failed.arch;
    }
  }
  EXPECT_TRUE(retrained_while_pending);
}

}  // namespace
}  // namespace ncnas::nas
