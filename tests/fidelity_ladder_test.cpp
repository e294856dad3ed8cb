// FidelityLadder proof net: seeded determinism across all four strategies
// (and across thread counts), null-config bit-identity with the flat
// evaluator path, successive-halving promotion properties (exactly
// ceil(n/eta) survivors, rank-stable ties), warm-vs-scratch parity bounds,
// per-rung cache-key disjointness, chaos-plan composition (faults retry
// without double-promoting), and journal-replay reconciliation of the
// ladder counters against the SearchResult.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ncnas/exec/fault.hpp"
#include "ncnas/exec/fidelity_ladder.hpp"
#include "ncnas/exec/shared_cache.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas {
namespace {

data::Dataset tiny_nt3() {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(5, dims);
}

exec::LadderConfig two_rung_ladder() {
  exec::LadderConfig ladder;
  ladder.eta = 2;
  ladder.rungs = {{.epochs = 1, .subset_fraction = 1.0},
                  {.epochs = 2, .subset_fraction = 1.0}};
  return ladder;
}

nas::SearchConfig ladder_config(nas::SearchStrategy strategy, std::uint64_t seed = 11) {
  nas::SearchConfig cfg;
  cfg.strategy = strategy;
  cfg.cluster = {.num_agents = 2, .workers_per_agent = 3};
  cfg.wall_time_seconds = 500.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = seed;
  cfg.ladder = two_rung_ladder();
  return cfg;
}

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
  plan.worker_crashes.push_back({.agent = 1, .worker = 0, .time = 200.0});
  return plan;
}

std::vector<space::ArchEncoding> sample_batch(const space::SearchSpace& s, std::size_t n,
                                              std::uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<space::ArchEncoding> archs;
  archs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) archs.push_back(s.random_arch(rng));
  return archs;
}

/// Bitwise comparison of two SearchResults from the same config.
void expect_identical_runs(const nas::SearchResult& a, const nas::SearchResult& b) {
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    SCOPED_TRACE("eval " + std::to_string(i));
    EXPECT_DOUBLE_EQ(a.evals[i].time, b.evals[i].time);
    EXPECT_EQ(a.evals[i].reward, b.evals[i].reward);
    EXPECT_DOUBLE_EQ(a.evals[i].sim_duration, b.evals[i].sim_duration);
    EXPECT_EQ(a.evals[i].cache_hit, b.evals[i].cache_hit);
    EXPECT_EQ(a.evals[i].timed_out, b.evals[i].timed_out);
    EXPECT_EQ(a.evals[i].failed, b.evals[i].failed);
    EXPECT_EQ(a.evals[i].rung, b.evals[i].rung);
    EXPECT_EQ(a.evals[i].agent, b.evals[i].agent);
    EXPECT_EQ(a.evals[i].arch, b.evals[i].arch);
  }
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.ladder_trainings, b.ladder_trainings);
  EXPECT_EQ(a.ladder_promotions, b.ladder_promotions);
  EXPECT_EQ(a.ladder_warm_starts, b.ladder_warm_starts);
  EXPECT_EQ(a.ladder_rung_hits, b.ladder_rung_hits);
}

// ------------------------------------------------------------- config layer

TEST(LadderConfig, DefaultIsDisabledAndValid) {
  const exec::LadderConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  EXPECT_NO_THROW(cfg.validate());
}

TEST(LadderConfig, ValidateRejectsMalformedLadders) {
  exec::LadderConfig cfg = two_rung_ladder();
  cfg.eta = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = two_rung_ladder();
  cfg.rungs[0].epochs = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = two_rung_ladder();
  cfg.rungs[0].epochs = 3;  // decreasing: cumulative epochs must not shrink
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // A single rung never enables the ladder, so it is valid by definition.
  cfg = two_rung_ladder();
  cfg.rungs.resize(1);
  EXPECT_FALSE(cfg.enabled());
  EXPECT_NO_THROW(cfg.validate());
}

TEST(LadderConfig, GeometricLadderDividesEpochsByEta) {
  const exec::LadderConfig cfg =
      exec::make_geometric_ladder({.epochs = 12, .subset_fraction = 1.0}, 3, 4);
  ASSERT_EQ(cfg.rungs.size(), 3u);
  EXPECT_EQ(cfg.rungs[0].epochs, 1u);   // 12 / 16 floored at 1
  EXPECT_EQ(cfg.rungs[1].epochs, 3u);   // 12 / 4
  EXPECT_EQ(cfg.rungs[2].epochs, 12u);  // full fidelity
  EXPECT_EQ(cfg.eta, 4u);
}

TEST(LadderConfig, FingerprintSeparatesShapes) {
  const exec::LadderConfig base = two_rung_ladder();
  exec::LadderConfig other = base;
  std::set<std::string> prints{base.fingerprint()};

  other.eta = 3;
  EXPECT_TRUE(prints.insert(other.fingerprint()).second);
  other = base;
  other.warm_start = false;
  EXPECT_TRUE(prints.insert(other.fingerprint()).second);
  other = base;
  other.rungs[1].epochs = 4;
  EXPECT_TRUE(prints.insert(other.fingerprint()).second);
  other = base;
  other.rungs[0].subset_fraction = 0.5;
  EXPECT_TRUE(prints.insert(other.fingerprint()).second);
}

// ----------------------------------------------------- cache-key disjointness

TEST(FidelityLadder, RungContextKeysAreDisjoint) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const exec::CostModel cost{};
  exec::LadderConfig cfg = two_rung_ladder();
  const exec::FidelityLadder ladder(s, ds, cfg, cost);

  std::set<std::string> keys;
  // Flat contexts at each rung's fidelity: what a non-ladder evaluator with
  // the same recipe would key its cache under.
  for (const exec::FidelityConfig& fid : cfg.rungs) {
    EXPECT_TRUE(keys.insert(exec::eval_context_key(ds, fid, cost)).second);
  }
  // Ladder-level (final outcomes) and per-rung contexts must alias neither
  // the flat keys nor each other.
  EXPECT_TRUE(keys.insert(ladder.context_key()).second);
  for (std::size_t r = 0; r < cfg.rungs.size(); ++r) {
    EXPECT_TRUE(keys.insert(ladder.rung_context_key(r)).second);
  }
  // A different ladder shape over the same fidelities is its own namespace.
  exec::LadderConfig other = cfg;
  other.eta = 3;
  const exec::FidelityLadder ladder3(s, ds, other, cost);
  EXPECT_TRUE(keys.insert(ladder3.context_key()).second);
  for (std::size_t r = 0; r < other.rungs.size(); ++r) {
    EXPECT_TRUE(keys.insert(ladder3.rung_context_key(r)).second);
  }
}

TEST(FidelityLadder, RungResultsNeverServeFlatLookups) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const exec::CostModel cost{};
  exec::SharedEvalCache cache;
  exec::FidelityLadder ladder(s, ds, two_rung_ladder(), cost);
  ladder.set_shared_cache(&cache, 0);

  const auto archs = sample_batch(s, 3, 5);
  (void)ladder.evaluate_batch(archs, 99);
  EXPECT_GT(cache.size(), 0u);

  // A flat evaluator at the bottom rung's exact fidelity must miss: rung
  // measurements live in the ladder's namespace only.
  const std::string flat_ctx = exec::eval_context_key(ds, two_rung_ladder().rungs[0], cost);
  for (const auto& arch : archs) {
    EXPECT_FALSE(cache.lookup(flat_ctx, space::arch_key(arch), 0).has_value());
  }
}

// ------------------------------------------------------- promotion properties

TEST(FidelityLadder, PromotesExactlyCeilOverEta) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  exec::LadderConfig cfg;
  cfg.eta = 3;
  cfg.rungs = {{.epochs = 1}, {.epochs = 2}, {.epochs = 3}};
  const exec::FidelityLadder ladder(s, ds, cfg, exec::CostModel{});

  const auto archs = sample_batch(s, 7, 3);
  std::vector<exec::LadderRungStats> stats;
  const auto out = ladder.evaluate_batch(archs, 42, &stats);

  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].candidates, 7u);
  EXPECT_EQ(stats[0].survivors, 3u);  // ceil(7/3)
  EXPECT_EQ(stats[1].candidates, 3u);
  EXPECT_EQ(stats[1].survivors, 1u);  // ceil(3/3)
  EXPECT_EQ(stats[2].candidates, 1u);
  EXPECT_EQ(stats[2].survivors, 0u);  // the top rung promotes nobody

  // Rung-weighted cost: every candidate pays one training per rung reached.
  std::size_t trainings = 0;
  for (const auto& o : out) {
    EXPECT_EQ(o.trainings, static_cast<std::size_t>(o.result.rung) + 1);
    trainings += o.trainings;
  }
  EXPECT_EQ(trainings, stats[0].trainings + stats[1].trainings + stats[2].trainings);
  EXPECT_EQ(trainings, 7u + 3u + 1u);
}

TEST(FidelityLadder, TiedRewardsPromoteLowerBatchIndices) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  exec::LadderConfig cfg;
  cfg.eta = 3;
  cfg.rungs = {{.epochs = 1}, {.epochs = 2}, {.epochs = 3}};
  exec::FidelityLadder ladder(s, ds, cfg, exec::CostModel{});
  // Constant reward: every promotion decision is a pure tie, so the
  // rank-stable rule must keep the lowest batch indices at every rung.
  ladder.set_reward_fn([](const exec::RewardInputs&) { return 0.5f; });

  const auto out = ladder.evaluate_batch(sample_batch(s, 7, 3), 42);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[0].result.rung, 2u);  // sole top-rung survivor
  EXPECT_EQ(out[1].result.rung, 1u);
  EXPECT_EQ(out[2].result.rung, 1u);
  for (std::size_t i = 3; i < 7; ++i) EXPECT_EQ(out[i].result.rung, 0u);
}

// ------------------------------------------ determinism and warm-start parity

TEST(FidelityLadder, DeterministicAcrossRunsAndThreadCounts) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const exec::FidelityLadder ladder(s, ds, two_rung_ladder(), exec::CostModel{});
  const auto archs = sample_batch(s, 6, 17);

  const auto serial = ladder.evaluate_batch(archs, 1234);
  const auto again = ladder.evaluate_batch(archs, 1234);
  tensor::ThreadPool pool(4);
  const auto parallel = ladder.evaluate_batch(archs, 1234, nullptr, &pool);

  ASSERT_EQ(serial.size(), again.size());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    EXPECT_EQ(serial[i].result.reward, again[i].result.reward);
    EXPECT_EQ(serial[i].result.reward, parallel[i].result.reward);
    EXPECT_DOUBLE_EQ(serial[i].result.sim_duration, parallel[i].result.sim_duration);
    EXPECT_EQ(serial[i].result.rung, parallel[i].result.rung);
    EXPECT_EQ(serial[i].trainings, parallel[i].trainings);
  }
}

TEST(FidelityLadder, SingleEvaluateClimbsEveryRung) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const exec::FidelityLadder ladder(s, ds, two_rung_ladder(), exec::CostModel{});
  const auto archs = sample_batch(s, 1, 9);
  const exec::EvalResult r = ladder.evaluate(archs[0], 55);
  EXPECT_EQ(r.rung, 1u);  // ceil(1/eta) = 1 survivor: n = 1 always promotes
  EXPECT_GE(r.reward, ladder.reward_floor());
  EXPECT_GT(r.sim_duration, 0.0);
}

TEST(FidelityLadder, OneRungReplaysTheFlatEvaluator) {
  // A one-rung ladder is the flat evaluator: same build, same split(1)
  // optimizer stream, same cost, timeout, reward function and floor.
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const exec::CostModel cost{
      .startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 20.2};
  const exec::FidelityConfig fidelities[] = {
      {.epochs = 1, .subset_fraction = 1.0},
      {.epochs = 2,
       .subset_fraction = 0.5,
       .learning_rate = 0.01f,
       .batch_size = 8,
       .valid_fraction = 0.5}};
  const auto archs = sample_batch(s, 48, 29);
  std::size_t timeouts = 0;
  std::size_t trained = 0;
  for (const exec::FidelityConfig& fid : fidelities) {
    for (const bool shaped : {false, true}) {
      SCOPED_TRACE(std::string("epochs ") + std::to_string(fid.epochs) +
                   (shaped ? " shaped" : " plain"));
      exec::TrainingEvaluator flat(s, ds, fid, cost);
      exec::LadderConfig one_rung;
      one_rung.rungs = {fid};
      exec::FidelityLadder ladder(s, ds, one_rung, cost);
      if (shaped) {
        flat.set_reward_fn(exec::size_penalized_reward(0.1f, 2000));
        ladder.set_reward_fn(exec::size_penalized_reward(0.1f, 2000));
      }
      for (std::size_t i = 0; i < archs.size(); ++i) {
        SCOPED_TRACE("arch " + std::to_string(i));
        const exec::EvalResult a = flat.evaluate(archs[i], 900 + i);
        const exec::EvalResult b = ladder.evaluate(archs[i], 900 + i);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(a.reward), std::bit_cast<std::uint32_t>(b.reward));
        EXPECT_EQ(a.params, b.params);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sim_duration),
                  std::bit_cast<std::uint64_t>(b.sim_duration));
        EXPECT_EQ(a.timed_out, b.timed_out);
        EXPECT_EQ(b.rung, 0u);
        (a.timed_out ? timeouts : trained) += 1;
      }
    }
  }
  // Both branches of the recipe ran: kills and trainings.
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(trained, 0u);
}

TEST(FidelityLadder, WarmAndScratchAgreeWithinParityBounds) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  exec::LadderConfig warm = two_rung_ladder();
  exec::LadderConfig scratch = warm;
  scratch.warm_start = false;

  const exec::FidelityLadder warm_ladder(s, ds, warm, exec::CostModel{});
  const exec::FidelityLadder scratch_ladder(s, ds, scratch, exec::CostModel{});
  const auto archs = sample_batch(s, 6, 21);

  std::vector<exec::LadderRungStats> warm_stats, scratch_stats;
  const auto a = warm_ladder.evaluate_batch(archs, 77, &warm_stats);
  const auto b = scratch_ladder.evaluate_batch(archs, 77, &scratch_stats);

  // Warm starts only happen when weights are inherited; the scratch variant
  // must never record one. Survivor counts are a pure function of alive
  // counts, so both variants promote the same number per rung.
  ASSERT_EQ(warm_stats.size(), scratch_stats.size());
  std::size_t warm_total = 0;
  for (std::size_t r = 0; r < warm_stats.size(); ++r) {
    EXPECT_EQ(warm_stats[r].survivors, scratch_stats[r].survivors);
    EXPECT_EQ(scratch_stats[r].warm_starts, 0u);
    warm_total += warm_stats[r].warm_starts;
  }
  EXPECT_GT(warm_total, 0u);  // rung 1 trainings inherited rung-0 weights

  // Parity bound: both variants train the same cumulative epochs at the top
  // rung (warm pays 1+1, scratch pays 2 from fresh init), so rung-0 rewards
  // are bit-equal and the batch-mean top-level reward gap stays small.
  double gap_sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i].result.reward, warm_ladder.reward_floor());
    EXPECT_LE(a[i].result.reward, 1.0f);
    if (a[i].result.rung == 0 && b[i].result.rung == 0) {
      EXPECT_EQ(a[i].result.reward, b[i].result.reward);  // rung 0 is identical
    }
    gap_sum += std::abs(static_cast<double>(a[i].result.reward) -
                        static_cast<double>(b[i].result.reward));
  }
  EXPECT_LE(gap_sum / static_cast<double>(a.size()), 0.5);
}

// ------------------------------------------------------ shared-cache composition

TEST(FidelityLadder, RungHitsServeRepeatBatchesWithoutTraining) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  exec::SharedEvalCache cache;
  exec::FidelityLadder first(s, ds, two_rung_ladder(), exec::CostModel{});
  exec::FidelityLadder second(s, ds, two_rung_ladder(), exec::CostModel{});
  first.set_shared_cache(&cache, 1);
  second.set_shared_cache(&cache, 2);

  const auto archs = sample_batch(s, 5, 31);
  std::vector<exec::LadderRungStats> s1, s2;
  const auto a = first.evaluate_batch(archs, 7, &s1);
  const auto b = second.evaluate_batch(archs, 7, &s2);

  std::size_t trainings2 = 0, hits2 = 0;
  for (const auto& rs : s2) {
    trainings2 += rs.trainings;
    hits2 += rs.rung_hits;
  }
  EXPECT_EQ(trainings2, 0u);  // every rung served from the shared store
  EXPECT_GT(hits2, 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].result.reward, b[i].result.reward);
    EXPECT_EQ(a[i].result.rung, b[i].result.rung);
    EXPECT_EQ(b[i].trainings, 0u);
  }
  EXPECT_GT(cache.stats(2).cross_tenant_hits, 0u);
}

// ----------------------------------------------------------- driver integration

TEST(LadderDriver, NullLadderIsBitIdenticalToFlatPath) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  nas::SearchConfig flat = ladder_config(nas::SearchStrategy::kA3C);
  flat.ladder = exec::LadderConfig{};  // default: disabled
  nas::SearchConfig one_rung = flat;
  one_rung.ladder.rungs = {flat.fidelity};  // size 1: still disabled

  const nas::SearchResult a = nas::SearchDriver(s, ds, flat).run();
  const nas::SearchResult b = nas::SearchDriver(s, ds, one_rung).run();
  expect_identical_runs(a, b);
  EXPECT_EQ(a.ladder_trainings, 0u);
  EXPECT_EQ(a.ladder_promotions, 0u);
  for (const auto& e : a.evals) EXPECT_EQ(e.rung, 0u);
  // A disabled ladder leaves the fingerprint — and so every cached log and
  // snapshot namespace — untouched.
  EXPECT_EQ(nas::config_fingerprint(flat, s.name()),
            nas::config_fingerprint(one_rung, s.name()));
  EXPECT_EQ(nas::config_fingerprint(flat, s.name()).find("|ladder:"), std::string::npos);
}

TEST(LadderDriver, EnabledLadderMarksFingerprint) {
  const space::SearchSpace s = space::nt3_small_space();
  const nas::SearchConfig cfg = ladder_config(nas::SearchStrategy::kA3C);
  const std::string fp = nas::config_fingerprint(cfg, s.name());
  EXPECT_NE(fp.find("|ladder:"), std::string::npos);
  EXPECT_NE(fp.find(cfg.ladder.fingerprint()), std::string::npos);
}

TEST(LadderDriver, DeterministicAcrossRunsForEveryStrategy) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  for (const auto strategy :
       {nas::SearchStrategy::kA3C, nas::SearchStrategy::kA2C, nas::SearchStrategy::kRandom,
        nas::SearchStrategy::kEvolution}) {
    SCOPED_TRACE(nas::strategy_name(strategy));
    const nas::SearchConfig cfg = ladder_config(strategy);
    const nas::SearchResult a = nas::SearchDriver(s, ds, cfg).run();
    const nas::SearchResult b = nas::SearchDriver(s, ds, cfg).run();
    expect_identical_runs(a, b);
    EXPECT_GT(a.ladder_trainings, 0u);
    EXPECT_GT(a.ladder_promotions, 0u);
    std::size_t top_rung_records = 0;
    for (const auto& e : a.evals) {
      EXPECT_LT(e.rung, cfg.ladder.rungs.size());
      if (e.rung + 1 == cfg.ladder.rungs.size()) ++top_rung_records;
    }
    EXPECT_GT(top_rung_records, 0u);
  }
}

TEST(LadderDriver, DeterministicAcrossThreadCounts) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const nas::SearchConfig cfg = ladder_config(nas::SearchStrategy::kA3C);
  const nas::SearchResult serial = nas::SearchDriver(s, ds, cfg).run();
  tensor::ThreadPool pool(4);
  const nas::SearchResult parallel = nas::SearchDriver(s, ds, cfg, &pool).run();
  expect_identical_runs(serial, parallel);
}

TEST(LadderDriver, BudgetCountsRungTrainings) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  nas::SearchConfig cfg = ladder_config(nas::SearchStrategy::kRandom);
  cfg.wall_time_seconds = 4000.0;
  cfg.max_evaluations = 10;
  const nas::SearchResult res = nas::SearchDriver(s, ds, cfg).run();
  // The budget stop fires on rung trainings, not records: a run that ended
  // on the budget consumed at least the cap, and strictly more trainings
  // than it produced fresh records (multi-rung candidates cost > 1 each).
  std::size_t fresh = 0;
  for (const auto& e : res.evals) fresh += e.cache_hit ? 0 : 1;
  if (!res.converged_early && res.end_time < cfg.wall_time_seconds) {
    EXPECT_GE(res.ladder_trainings, cfg.max_evaluations);
  }
  EXPECT_GT(res.ladder_trainings, fresh);
}

TEST(LadderDriver, ChaosPlanComposesWithoutDoublePromotion) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const exec::FaultPlan plan = chaos_plan();
  const exec::FaultInjector injector(plan);
  nas::SearchConfig cfg = ladder_config(nas::SearchStrategy::kA3C);
  cfg.faults = &injector;

  obs::Telemetry tel_a, tel_b;
  tel_a.enable_journal();
  tel_b.enable_journal();
  nas::SearchConfig cfg_a = cfg, cfg_b = cfg;
  cfg_a.telemetry = &tel_a;
  cfg_b.telemetry = &tel_b;
  const nas::SearchResult a = nas::SearchDriver(s, ds, cfg_a).run();
  const nas::SearchResult b = nas::SearchDriver(s, ds, cfg_b).run();
  expect_identical_runs(a, b);
  EXPECT_GT(a.retries + a.exhausted + a.crashed_workers, 0u);  // chaos actually bit
  EXPECT_GT(a.ladder_trainings, 0u);

  // A faulty dispatch retries the *finished* ladder outcome on the virtual
  // clock; it must never re-enter the ladder, so every promotion is journaled
  // exactly once and the replay reconciles with the result counters.
  const obs::RunSummary sum = obs::summarize_journal(tel_a.journal()->snapshot());
  EXPECT_EQ(nas::reconcile(a, sum), std::vector<std::string>{});
}

TEST(LadderDriver, JournalReplayReconcilesPromotions) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  obs::Telemetry tel;
  tel.enable_journal();
  nas::SearchConfig cfg = ladder_config(nas::SearchStrategy::kA2C);
  cfg.telemetry = &tel;
  const nas::SearchResult res = nas::SearchDriver(s, ds, cfg).run();

  // Round-trip through the JSONL wire format: the replay must see the same
  // ladder story a live subscriber saw.
  std::stringstream wire;
  tel.journal()->export_jsonl(wire);
  const auto events = obs::Journal::import_jsonl(wire);
  const obs::RunSummary sum = obs::summarize_journal(events);

  EXPECT_GT(sum.ladder_rung_events, 0u);
  EXPECT_EQ(nas::reconcile(res, sum), std::vector<std::string>{});

  // Per-rung flow conservation: without a shared cache, every candidate that
  // enters rung r+1 is a survivor of rung r in the same batch.
  ASSERT_EQ(sum.ladder_rungs.size(), cfg.ladder.rungs.size());
  for (std::size_t r = 0; r + 1 < cfg.ladder.rungs.size(); ++r) {
    const auto& here = sum.ladder_rungs.at(static_cast<std::uint32_t>(r));
    const auto& next = sum.ladder_rungs.at(static_cast<std::uint32_t>(r + 1));
    EXPECT_EQ(here.survivors, next.candidates);
    EXPECT_LE(here.survivors, here.candidates);
  }
  // The top rung promotes nobody.
  const auto& top =
      sum.ladder_rungs.at(static_cast<std::uint32_t>(cfg.ladder.rungs.size() - 1));
  EXPECT_EQ(top.survivors, 0u);
}

TEST(LadderDriver, ProfileReconcilesWithJournalTrainWall) {
  // Ladder rungs train under the evaluator's eval/train and eval/validate
  // scopes, so a profiled ladder run reconciles with its journal's
  // train_wall_ms the way a flat run does, and the wall-time histogram
  // counts exactly the rung trainings.
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  obs::Telemetry tel;
  tel.enable_journal();
  tel.enable_profiler();
  nas::SearchConfig cfg = ladder_config(nas::SearchStrategy::kA2C);
  cfg.ladder = exec::make_geometric_ladder({.epochs = 4, .subset_fraction = 1.0}, 3, 2);
  cfg.telemetry = &tel;
  tensor::ThreadPool pool(2);
  (void)nas::SearchDriver(s, ds, cfg, &pool).run();
  const obs::TelemetrySnapshot snap = tel.snapshot();

  double profile_ms = 0.0;
  for (const obs::FlatProfileEntry& e : snap.profile.flat()) {
    if (e.name == "eval/train" || e.name == "eval/validate") profile_ms += e.total_ms;
  }
  double journal_ms = 0.0;
  for (const obs::JournalEvent& e : snap.journal) {
    if (e.type == obs::JournalEventType::kEvalFinished) journal_ms += e.field("train_wall_ms");
  }
  ASSERT_GT(journal_ms, 0.0);
  EXPECT_LE(std::abs(profile_ms - journal_ms), 0.10 * journal_ms)
      << "profile " << profile_ms << " ms vs journal " << journal_ms << " ms";

  const obs::HistogramSample* wall = snap.metrics.histogram("ncnas_train_wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_GT(wall->count, 0u);
  EXPECT_EQ(wall->count, snap.metrics.counter_value("ncnas_fidelity_rung_trainings_total"));
}

TEST(LadderDriver, ResultLogRoundTripsRungs) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const nas::SearchConfig cfg = ladder_config(nas::SearchStrategy::kRandom);
  const nas::SearchResult res = nas::SearchDriver(s, ds, cfg).run();

  const std::string dir = ::testing::TempDir() + "ncnas_ladder_log";
  const std::string fp = nas::config_fingerprint(cfg, s.name());
  std::filesystem::create_directories(dir);
  nas::save_result(dir + "/ladder.log", res, fp);
  const auto loaded = nas::load_result(dir + "/ladder.log", fp);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->evals.size(), res.evals.size());
  for (std::size_t i = 0; i < res.evals.size(); ++i) {
    EXPECT_EQ(loaded->evals[i].rung, res.evals[i].rung);
    EXPECT_EQ(loaded->evals[i].reward, res.evals[i].reward);
  }
  EXPECT_EQ(loaded->ladder_trainings, res.ladder_trainings);
  EXPECT_EQ(loaded->ladder_promotions, res.ladder_promotions);
  EXPECT_EQ(loaded->ladder_warm_starts, res.ladder_warm_starts);
  EXPECT_EQ(loaded->ladder_rung_hits, res.ladder_rung_hits);
}

}  // namespace
}  // namespace ncnas
