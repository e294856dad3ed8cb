// NAS-as-a-service tests: DRR gang-scheduler fairness and determinism,
// admission control and backpressure, the cross-tenant SharedEvalCache
// (keying, accounting, first-writer-wins), and the headline guarantees —
// a tenant searched in preempted time slices returns the standalone
// SearchResult bit-identically (chaos plans included), and the seeded
// shared-cache scenario reproduces exactly across reruns.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "ncnas/exec/fault.hpp"
#include "ncnas/exec/shared_cache.hpp"
#include "ncnas/obs/exporter.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/serve/server.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas::serve {
namespace {

data::Dataset tiny_nt3() {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(5, dims);
}

nas::SearchConfig small_config(nas::SearchStrategy strategy, std::uint64_t seed = 11) {
  nas::SearchConfig cfg;
  cfg.strategy = strategy;
  cfg.cluster = {.num_agents = 3, .workers_per_agent = 4};
  cfg.wall_time_seconds = 600.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = seed;
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
  plan.worker_crashes.push_back({.agent = 1, .worker = 0, .time = 300.0});
  return plan;
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ncnas_serve_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Every field the search computed must match exactly; only the process
/// lineage counters (checkpoints_written, resumes) may differ between a
/// sliced and an uninterrupted run.
void expect_bit_identical(const nas::SearchResult& a, const nas::SearchResult& b) {
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    SCOPED_TRACE("eval " + std::to_string(i));
    const nas::EvalRecord& x = a.evals[i];
    const nas::EvalRecord& y = b.evals[i];
    EXPECT_DOUBLE_EQ(x.time, y.time);
    EXPECT_EQ(x.reward, y.reward);
    EXPECT_EQ(x.params, y.params);
    EXPECT_DOUBLE_EQ(x.sim_duration, y.sim_duration);
    EXPECT_EQ(x.cache_hit, y.cache_hit);
    EXPECT_EQ(x.shared_hit, y.shared_hit);
    EXPECT_EQ(x.timed_out, y.timed_out);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_EQ(x.rung, y.rung);
    EXPECT_EQ(x.agent, y.agent);
    EXPECT_EQ(x.arch, y.arch);
  }
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.converged_early, b.converged_early);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.shared_cache_hits, b.shared_cache_hits);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.unique_archs, b.unique_archs);
  EXPECT_EQ(a.ppo_updates, b.ppo_updates);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(a.lost_results, b.lost_results);
  EXPECT_EQ(a.crashed_workers, b.crashed_workers);
  EXPECT_EQ(a.dead_agents, b.dead_agents);
  EXPECT_EQ(a.ladder_trainings, b.ladder_trainings);
  EXPECT_EQ(a.ladder_promotions, b.ladder_promotions);
  EXPECT_EQ(a.ladder_warm_starts, b.ladder_warm_starts);
  EXPECT_EQ(a.ladder_rung_hits, b.ladder_rung_hits);
  ASSERT_EQ(a.utilization.size(), b.utilization.size());
  for (std::size_t i = 0; i < a.utilization.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.utilization[i], b.utilization[i]);
  }
}

// ---------------------------------------------------------------- scheduler

TEST(DrrScheduler, EqualWeightsAlternateOnSaturatedPool) {
  // Two equal tenants, pool fits exactly one gang: grants must alternate —
  // cumulative counts never differ by more than one after any round.
  DrrScheduler sched(12);
  sched.add_tenant(1, 1.0, 12);
  sched.add_tenant(2, 1.0, 12);
  for (int round = 0; round < 50; ++round) {
    const auto grants = sched.next_round();
    ASSERT_EQ(grants.size(), 1u) << "saturated pool fits exactly one gang";
    sched.release(grants[0]);
    const auto a = static_cast<long>(sched.grants(1));
    const auto b = static_cast<long>(sched.grants(2));
    EXPECT_LE(std::abs(a - b), 1) << "after round " << round;
  }
  EXPECT_EQ(sched.grants(1) + sched.grants(2), 50u);
}

TEST(DrrScheduler, WeightsSkewSliceSharesProportionally) {
  DrrScheduler sched(10);
  sched.add_tenant(1, 2.0, 10);
  sched.add_tenant(2, 1.0, 10);
  for (int round = 0; round < 60; ++round) {
    for (const std::uint32_t id : sched.next_round()) sched.release(id);
  }
  const double ratio =
      static_cast<double>(sched.grants(1)) / static_cast<double>(sched.grants(2));
  EXPECT_NEAR(ratio, 2.0, 0.15) << sched.grants(1) << " vs " << sched.grants(2);
}

TEST(DrrScheduler, WorkConservingWhenPoolFitsEveryGang) {
  DrrScheduler sched(24);
  sched.add_tenant(1, 1.0, 12);
  sched.add_tenant(2, 3.0, 12);
  for (int round = 0; round < 10; ++round) {
    const auto grants = sched.next_round();
    EXPECT_EQ(grants.size(), 2u) << "free slots must never idle while a gang fits";
    for (const std::uint32_t id : grants) sched.release(id);
  }
}

TEST(DrrScheduler, GrantSequenceIsDeterministic) {
  std::vector<std::vector<std::uint32_t>> first;
  for (int rep = 0; rep < 2; ++rep) {
    DrrScheduler sched(16);
    sched.add_tenant(1, 2.0, 8);
    sched.add_tenant(2, 1.0, 16);
    sched.add_tenant(3, 1.0, 8);
    std::vector<std::vector<std::uint32_t>> seq;
    for (int round = 0; round < 40; ++round) {
      auto grants = sched.next_round();
      for (const std::uint32_t id : grants) sched.release(id);
      seq.push_back(std::move(grants));
    }
    if (rep == 0) {
      first = std::move(seq);
    } else {
      EXPECT_EQ(first, seq);
    }
  }
}

TEST(DrrScheduler, HoldingTenantReceivesNoSecondGrant) {
  DrrScheduler sched(24);
  sched.add_tenant(1, 1.0, 12);
  auto grants = sched.next_round();
  ASSERT_EQ(grants, std::vector<std::uint32_t>{1});
  EXPECT_EQ(sched.free_slots(), 12u);
  // Still holding: the next round must not double-grant the same gang.
  EXPECT_TRUE(sched.next_round().empty());
  sched.release(1);
  EXPECT_EQ(sched.free_slots(), 24u);
  EXPECT_EQ(sched.next_round(), std::vector<std::uint32_t>{1});
}

TEST(DrrScheduler, IdleTenantsHoardNoCredit) {
  DrrScheduler sched(12);
  sched.add_tenant(1, 1.0, 12);
  sched.add_tenant(2, 1.0, 12);
  sched.set_runnable(2, false);
  for (int round = 0; round < 10; ++round) {
    const auto grants = sched.next_round();
    ASSERT_EQ(grants, std::vector<std::uint32_t>{1});
    sched.release(1);
  }
  EXPECT_EQ(sched.deficit(2), 0.0) << "idle tenants accrue nothing";
  sched.set_runnable(2, true);
  // Reactivation competes fairly from zero — no burst of stored credit.
  for (int round = 0; round < 20; ++round) {
    for (const std::uint32_t id : sched.next_round()) sched.release(id);
    EXPECT_LE(std::abs(static_cast<long>(sched.grants(1)) - 10 -
                       static_cast<long>(sched.grants(2))),
              1);
  }
}

TEST(DrrScheduler, RemoveTenantFreesHeldSlots) {
  DrrScheduler sched(12);
  sched.add_tenant(1, 1.0, 12);
  sched.add_tenant(2, 1.0, 12);
  ASSERT_EQ(sched.next_round(), std::vector<std::uint32_t>{1});
  EXPECT_EQ(sched.free_slots(), 0u);
  sched.remove_tenant(1);
  EXPECT_EQ(sched.free_slots(), 12u);
  EXPECT_EQ(sched.next_round(), std::vector<std::uint32_t>{2});
}

TEST(DrrScheduler, RejectsUnschedulableRegistrations) {
  DrrScheduler sched(12);
  sched.add_tenant(1, 1.0, 12);
  EXPECT_THROW(sched.add_tenant(1, 1.0, 4), std::invalid_argument);   // duplicate
  EXPECT_THROW(sched.add_tenant(2, 0.0, 4), std::invalid_argument);   // weight
  EXPECT_THROW(sched.add_tenant(2, 1.0, 0), std::invalid_argument);   // empty gang
  EXPECT_THROW(sched.add_tenant(2, 1.0, 13), std::invalid_argument);  // oversized
  EXPECT_THROW(sched.release(9), std::invalid_argument);              // unknown id
  EXPECT_THROW(DrrScheduler(0), std::invalid_argument);
}

// ------------------------------------------------------------- shared cache

TEST(SharedEvalCache, ContextKeyCoversDatasetFidelityAndCost) {
  const data::Dataset ds = tiny_nt3();
  const exec::FidelityConfig fid{.epochs = 1, .subset_fraction = 1.0};
  const exec::CostModel cost{};
  const std::string base = exec::eval_context_key(ds, fid, cost);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(base, exec::eval_context_key(ds, fid, cost)) << "key must be stable";

  data::Nt3Dims other_dims;
  other_dims.train = 64;
  other_dims.valid = 32;
  other_dims.length = 32;  // different sequence length
  other_dims.motif = 6;
  const data::Dataset other_ds = data::make_nt3(5, other_dims);
  EXPECT_NE(base, exec::eval_context_key(other_ds, fid, cost));

  exec::FidelityConfig fid2 = fid;
  fid2.epochs = 2;
  EXPECT_NE(base, exec::eval_context_key(ds, fid2, cost));
  fid2 = fid;
  fid2.subset_fraction = 0.5;
  EXPECT_NE(base, exec::eval_context_key(ds, fid2, cost));
  fid2 = fid;
  fid2.learning_rate = 0.01f;
  EXPECT_NE(base, exec::eval_context_key(ds, fid2, cost));
  fid2 = fid;
  fid2.valid_fraction = 0.5;
  EXPECT_NE(base, exec::eval_context_key(ds, fid2, cost));

  exec::CostModel cost2 = cost;
  cost2.timeout_seconds = 1.0;
  EXPECT_NE(base, exec::eval_context_key(ds, fid, cost2));
}

TEST(SharedEvalCache, FirstWriterWinsWithPerTenantAccounting) {
  exec::SharedEvalCache cache;
  exec::EvalResult r1;
  r1.reward = 0.5f;
  EXPECT_FALSE(cache.lookup("ctx", "arch", 1).has_value());  // miss for tenant 1
  cache.insert("ctx", "arch", 1, r1);

  // Tenant 2 hits an entry tenant 1 trained: a cross-tenant hit, flagged.
  const auto hit = cache.lookup("ctx", "arch", 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->reward, 0.5f);
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_TRUE(hit->shared_hit);

  // Same (context, arch) from another tenant must not overwrite the entry.
  exec::EvalResult r2;
  r2.reward = 0.9f;
  cache.insert("ctx", "arch", 2, r2);
  EXPECT_EQ(cache.lookup("ctx", "arch", 2)->reward, 0.5f);
  EXPECT_EQ(cache.size(), 1u);

  // A different context is a different entry even for the same arch.
  EXPECT_FALSE(cache.lookup("ctx2", "arch", 1).has_value());

  const exec::SharedEvalCache::Stats t1 = cache.stats(1);
  const exec::SharedEvalCache::Stats t2 = cache.stats(2);
  EXPECT_EQ(t1.misses, 2u);  // the initial probe + the ctx2 probe
  EXPECT_EQ(t1.inserts, 1u);
  EXPECT_EQ(t2.hits, 2u);
  EXPECT_EQ(t2.cross_tenant_hits, 2u);
  const exec::SharedEvalCache::Stats totals = cache.totals();
  EXPECT_EQ(totals.hits, 2u);
  EXPECT_EQ(totals.misses, 2u);

  cache.erase("ctx", "arch");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup("ctx", "arch", 1).has_value());
}

TEST(SharedEvalCache, ZeroCapKeepsTheClassicUnboundedStore) {
  exec::SharedEvalCache cache;  // default max_entries = 0
  EXPECT_EQ(cache.max_entries(), 0u);
  exec::EvalResult r;
  for (int i = 0; i < 100; ++i) {
    r.reward = static_cast<float>(i);
    cache.insert("ctx", "arch" + std::to_string(i), 1, r);
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats(1).evictions, 0u);
  EXPECT_TRUE(cache.lookup("ctx", "arch0", 1).has_value()) << "nothing may be evicted at cap 0";
}

TEST(SharedEvalCache, BoundedStoreEvictsOldestInsertFirst) {
  exec::SharedEvalCache cache(2);
  EXPECT_EQ(cache.max_entries(), 2u);
  exec::EvalResult r;
  r.reward = 0.1f;
  cache.insert("ctx", "a", 1, r);
  r.reward = 0.2f;
  cache.insert("ctx", "b", 2, r);
  EXPECT_EQ(cache.size(), 2u);

  // Third insert exceeds the bound: the oldest entry ("a") goes, and the
  // entry just inserted ("c") must survive its own insert.
  r.reward = 0.3f;
  cache.insert("ctx", "c", 1, r);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup("ctx", "a", 1).has_value());
  ASSERT_TRUE(cache.lookup("ctx", "b", 1).has_value());
  ASSERT_TRUE(cache.lookup("ctx", "c", 1).has_value());
  EXPECT_EQ(cache.lookup("ctx", "c", 1)->reward, 0.3f);

  // The eviction is charged to the evicted entry's owner, not the inserter.
  EXPECT_EQ(cache.stats(1).evictions, 1u);
  EXPECT_EQ(cache.stats(2).evictions, 0u);
  EXPECT_EQ(cache.totals().evictions, 1u);

  // A losing duplicate insert consumes no slot and evicts nothing.
  r.reward = 0.9f;
  cache.insert("ctx", "b", 1, r);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.totals().evictions, 1u);
  EXPECT_EQ(cache.lookup("ctx", "b", 1)->reward, 0.2f);
}

TEST(SharedEvalCache, EvictionOrderIsAPureFunctionOfTheRequestSequence) {
  // Two caches fed the identical request sequence must retain the identical
  // entry set — the determinism clause the driver's bit-identity contract
  // leans on when a bounded cache is shared across tenants.
  const auto drive = [](exec::SharedEvalCache& cache) {
    exec::EvalResult r;
    for (int i = 0; i < 12; ++i) {
      r.reward = static_cast<float>(i) * 0.125f;
      const std::uint32_t tenant = 1 + static_cast<std::uint32_t>(i % 3);
      (void)cache.lookup("ctx", "arch" + std::to_string(i / 2), tenant);
      cache.insert("ctx", "arch" + std::to_string(i), tenant, r);
    }
  };
  exec::SharedEvalCache first(5);
  exec::SharedEvalCache second(5);
  drive(first);
  drive(second);
  ASSERT_EQ(first.size(), 5u);
  ASSERT_EQ(second.size(), 5u);
  for (int i = 0; i < 12; ++i) {
    const std::string arch = "arch" + std::to_string(i);
    const auto a = first.lookup("ctx", arch, 9);
    const auto b = second.lookup("ctx", arch, 9);
    EXPECT_EQ(a.has_value(), b.has_value()) << arch << " retained in one cache but not the other";
    if (a.has_value() && b.has_value()) EXPECT_EQ(a->reward, b->reward);
    // FIFO with 12 inserts and cap 5 keeps exactly the newest five.
    EXPECT_EQ(a.has_value(), i >= 7) << arch;
  }
  for (std::uint32_t tenant = 1; tenant <= 3; ++tenant) {
    EXPECT_EQ(first.stats(tenant).evictions, second.stats(tenant).evictions);
    EXPECT_EQ(first.stats(tenant).hits, second.stats(tenant).hits);
    EXPECT_EQ(first.stats(tenant).misses, second.stats(tenant).misses);
  }
  EXPECT_EQ(first.totals().evictions, 7u);
}

// ------------------------------------------------------------------ server

TEST(SearchServer, AdmissionControlAndBackpressure) {
  const space::SearchSpace space = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  ServeConfig scfg;
  scfg.total_slots = 12;
  scfg.quantum_seconds = 300.0;
  scfg.max_tenants = 1;
  scfg.state_dir = scratch_dir("admission");
  SearchServer server(scfg);

  const auto spec = [&](const std::string& name) {
    TenantSpec s;
    s.name = name;
    s.space = &space;
    s.dataset = &ds;
    s.config = small_config(nas::SearchStrategy::kRandom);
    s.config.max_evaluations = 24;
    return s;
  };

  TenantSpec bad_name = spec("has space");
  EXPECT_THROW((void)server.submit(std::move(bad_name)), AdmissionError);
  TenantSpec oversized = spec("giant");
  oversized.config.cluster = {.num_agents = 4, .workers_per_agent = 4};
  EXPECT_THROW((void)server.submit(std::move(oversized)), AdmissionError);
  TenantSpec under_quota = spec("pinched");
  under_quota.quota.max_slots = 6;  // gang of 12 can never fit its own cap
  EXPECT_THROW((void)server.submit(std::move(under_quota)), AdmissionError);

  const std::uint32_t first = server.submit(spec("alpha"));
  EXPECT_EQ(server.state(first), TenantState::kQueued);
  EXPECT_THROW((void)server.submit(spec("alpha")), AdmissionError);  // duplicate name
  EXPECT_THROW((void)server.submit(spec("beta")), AdmissionError);   // server full
  EXPECT_EQ(server.rejections(), 5u);

  // Backpressure, not starvation: capacity frees when a tenant finishes.
  server.run();
  EXPECT_EQ(server.state(first), TenantState::kFinished);
  const std::uint32_t second = server.submit(spec("beta"));
  server.run();
  EXPECT_EQ(server.state(second), TenantState::kFinished);
}

TEST(SearchServer, MultiTenantRunMatchesStandaloneForAllStrategies) {
  // Four tenants — one per strategy — compete for a pool that fits one gang,
  // so every search is repeatedly paused and continued. With no shared
  // cache, each tenant's SearchResult must be bit-identical to its own
  // uninterrupted standalone run (the checkpoint count aside).
  const space::SearchSpace space = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const nas::SearchStrategy strategies[] = {
      nas::SearchStrategy::kA3C, nas::SearchStrategy::kA2C, nas::SearchStrategy::kRandom,
      nas::SearchStrategy::kEvolution};

  ServeConfig scfg;
  scfg.total_slots = 12;
  scfg.quantum_seconds = 150.0;
  scfg.max_tenants = 4;
  scfg.state_dir = scratch_dir("strategies");
  SearchServer server(scfg);
  std::vector<std::uint32_t> ids;
  for (const nas::SearchStrategy strategy : strategies) {
    TenantSpec spec;
    spec.name = std::string("t-") + nas::strategy_name(strategy);
    spec.space = &space;
    spec.dataset = &ds;
    spec.config = small_config(strategy, /*seed=*/17);
    ids.push_back(server.submit(std::move(spec)));
  }
  server.run();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(nas::strategy_name(strategies[i]));
    const TenantSession& session = server.session(ids[i]);
    EXPECT_GT(session.preemptions(), 0u) << "saturated pool must have preempted";
    const nas::SearchResult& served = server.result(ids[i]);
    EXPECT_EQ(served.resumes, 0u);
    const nas::SearchResult standalone =
        nas::SearchDriver(space, ds, small_config(strategies[i], 17)).run();
    expect_bit_identical(served, standalone);
  }
}

TEST(SearchServer, LateTenantArrivalIsDeterministicAndBitIdentical) {
  // A tenant submitted mid-scenario (between step() calls) joins the DRR
  // competition at a deterministic round, so rerunning the whole scenario —
  // same submissions at the same rounds — must reproduce the grant sequence,
  // slice counts, preemptions, and every per-tenant result bit-for-bit. The
  // late tenant itself still matches its own uninterrupted standalone run.
  const space::SearchSpace space = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();

  struct Run {
    std::size_t rounds = 0;
    std::vector<std::uint64_t> grants;
    std::vector<std::size_t> slices;
    std::vector<std::size_t> preemptions;
    std::vector<nas::SearchResult> results;
  };
  const auto scenario = [&](const std::string& dir) {
    ServeConfig scfg;
    scfg.total_slots = 12;
    scfg.quantum_seconds = 150.0;
    scfg.max_tenants = 3;
    scfg.state_dir = scratch_dir(dir);
    SearchServer server(scfg);

    const auto spec = [&](const std::string& name, nas::SearchStrategy strategy,
                          std::uint64_t seed) {
      TenantSpec s;
      s.name = name;
      s.space = &space;
      s.dataset = &ds;
      s.config = small_config(strategy, seed);
      return s;
    };
    std::vector<std::uint32_t> ids;
    ids.push_back(server.submit(spec("early-a", nas::SearchStrategy::kRandom, 23)));
    ids.push_back(server.submit(spec("early-b", nas::SearchStrategy::kA2C, 23)));
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(server.step()) << "early tenants must still be running at round " << i;
    }
    ids.push_back(server.submit(spec("late", nas::SearchStrategy::kEvolution, 29)));
    server.run();

    Run out;
    out.rounds = server.rounds();
    for (std::uint32_t id : ids) {
      EXPECT_EQ(server.state(id), TenantState::kFinished);
      out.grants.push_back(server.scheduler().grants(id));
      out.slices.push_back(server.session(id).slices());
      out.preemptions.push_back(server.session(id).preemptions());
      out.results.push_back(server.result(id));
    }
    return out;
  };

  const Run a = scenario("late-arrival-a");
  const Run b = scenario("late-arrival-b");
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.slices, b.slices);
  EXPECT_EQ(a.preemptions, b.preemptions);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_bit_identical(a.results[i], b.results[i]);
  }
  EXPECT_GT(a.grants.back(), 0u) << "the late tenant must have been scheduled";
  const nas::SearchResult standalone =
      nas::SearchDriver(space, ds, small_config(nas::SearchStrategy::kEvolution, 29)).run();
  expect_bit_identical(a.results.back(), standalone);
}

TEST(SearchServer, PreemptionJournalReconcilesWithResult) {
  const space::SearchSpace space = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  ServeConfig scfg;
  scfg.total_slots = 12;
  scfg.quantum_seconds = 120.0;
  scfg.state_dir = scratch_dir("journal");
  SearchServer server(scfg);
  TenantSpec spec;
  spec.name = "solo";
  spec.space = &space;
  spec.dataset = &ds;
  spec.config = small_config(nas::SearchStrategy::kA3C);
  const std::uint32_t id = server.submit(std::move(spec));
  server.run();

  // The per-tenant journal records the search across every preemption;
  // its replay must reconcile with the final result exactly the way
  // run_report --result cross-checks a standalone run.
  const nas::SearchResult& res = server.result(id);
  EXPECT_GT(server.session(id).preemptions(), 0u);
  const obs::RunSummary sum = obs::summarize_journal(server.journal(id));
  EXPECT_EQ(sum.resumes, 0u);
  EXPECT_EQ(nas::reconcile(res, sum), std::vector<std::string>{});
  const std::vector<obs::JournalEvent> events = server.journal(id);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].seq, i);
  }
}

TEST(SearchServer, PreemptMidRetryBackoffUnderChaosMatchesStandalone) {
  // The fault plan keeps retry backoffs in flight almost continuously, so a
  // 60-second quantum forces suspensions in the middle of them; resuming
  // must still reproduce the uninterrupted faulty run bit-for-bit.
  const space::SearchSpace space = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const exec::FaultInjector fx(chaos_plan());

  nas::SearchConfig cfg = small_config(nas::SearchStrategy::kA2C);
  cfg.faults = &fx;

  ServeConfig scfg;
  scfg.total_slots = 12;
  scfg.quantum_seconds = 60.0;
  scfg.state_dir = scratch_dir("chaos");
  SearchServer server(scfg);
  TenantSpec spec;
  spec.name = "chaos";
  spec.space = &space;
  spec.dataset = &ds;
  spec.config = cfg;
  const std::uint32_t id = server.submit(std::move(spec));
  server.run();

  const nas::SearchResult& served = server.result(id);
  EXPECT_GT(served.retries, 0u) << "plan must actually have injected faults";
  EXPECT_GT(server.session(id).preemptions(), 4u);
  const nas::SearchResult standalone = nas::SearchDriver(space, ds, cfg).run();
  expect_bit_identical(served, standalone);
}

TEST(SearchServer, SharedCacheScenarioIsDeterministicWithCrossTenantHits) {
  const space::SearchSpace space = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();

  // Two tenants with the same seed and strategy sample identical
  // architectures: whoever evaluates one first trains it, the other is
  // served from the shared store without touching a worker.
  const auto run_scenario = [&](const std::string& tag) {
    exec::SharedEvalCache shared;
    ServeConfig scfg;
    scfg.total_slots = 12;
    scfg.quantum_seconds = 150.0;
    scfg.state_dir = scratch_dir("shared_" + tag);
    scfg.shared_cache = &shared;
    SearchServer server(scfg);
    std::vector<std::uint32_t> ids;
    for (const char* name : {"alice", "bella"}) {
      TenantSpec spec;
      spec.name = name;
      spec.space = &space;
      spec.dataset = &ds;
      spec.config = small_config(nas::SearchStrategy::kRandom, /*seed=*/11);
      ids.push_back(server.submit(std::move(spec)));
    }
    server.run();
    EXPECT_GE(shared.totals().cross_tenant_hits, 1u);
    return std::make_pair(nas::SearchResult(server.result(ids[0])),
                          nas::SearchResult(server.result(ids[1])));
  };

  const auto [a1, b1] = run_scenario("one");
  // The trailing tenant's hits are flagged all the way down to the records.
  EXPECT_GT(b1.shared_cache_hits, 0u);
  bool saw_flagged_record = false;
  for (const nas::EvalRecord& e : b1.evals) {
    if (e.shared_hit) {
      EXPECT_TRUE(e.cache_hit) << "a shared hit is a cache hit";
      saw_flagged_record = true;
    }
  }
  EXPECT_TRUE(saw_flagged_record);

  // Rerunning the identical submission sequence reproduces both tenants'
  // results bit-for-bit — cross-tenant interactions included.
  const auto [a2, b2] = run_scenario("two");
  expect_bit_identical(a1, a2);
  expect_bit_identical(b1, b2);
}

TEST(SearchServer, EvalBudgetQuotaIsDeterministicallyEnforced) {
  const space::SearchSpace space = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  ServeConfig scfg;
  scfg.total_slots = 12;
  scfg.quantum_seconds = 150.0;
  scfg.state_dir = scratch_dir("budget");
  SearchServer server(scfg);
  TenantSpec spec;
  spec.name = "capped";
  spec.space = &space;
  spec.dataset = &ds;
  spec.config = small_config(nas::SearchStrategy::kRandom);
  spec.quota.eval_budget = 40;
  const std::uint32_t id = server.submit(std::move(spec));
  server.run();

  const nas::SearchResult& served = server.result(id);
  EXPECT_LE(served.evals.size(), 40u);
  // The quota maps onto max_evaluations, so the standalone equivalent is the
  // same config with the cap set directly.
  nas::SearchConfig cfg = small_config(nas::SearchStrategy::kRandom);
  cfg.max_evaluations = 40;
  expect_bit_identical(served, nas::SearchDriver(space, ds, cfg).run());
}

TEST(SearchServer, TenantMetricsAndEndpointStayValidOpenMetrics) {
  const space::SearchSpace space = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  obs::Telemetry telemetry;
  ServeConfig scfg;
  scfg.total_slots = 12;
  scfg.quantum_seconds = 200.0;
  scfg.state_dir = scratch_dir("metrics");
  scfg.telemetry = &telemetry;
  SearchServer server(scfg);
  std::vector<std::uint32_t> ids;
  for (const char* name : {"m-one", "m-two"}) {
    TenantSpec spec;
    spec.name = name;
    spec.space = &space;
    spec.dataset = &ds;
    spec.config = small_config(nas::SearchStrategy::kRandom,
                               /*seed=*/name[2] == 'o' ? 5 : 6);
    spec.config.max_evaluations = 36;
    ids.push_back(server.submit(std::move(spec)));
  }
  server.run();

  const obs::MetricsSnapshot m = telemetry.metrics().snapshot();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const TenantSession& s = server.session(ids[i]);
    const std::string label = "{tenant=\"" + s.name() + "\"}";
    EXPECT_EQ(m.counter_value("ncnas_tenant_slices_total" + label), s.slices());
    EXPECT_EQ(m.counter_value("ncnas_tenant_preemptions_total" + label), s.preemptions());
    EXPECT_EQ(m.counter_value("ncnas_tenant_evals_total" + label), s.summary().evals);
    EXPECT_EQ(m.counter_value("ncnas_tenant_grants_total" + label),
              server.scheduler().grants(ids[i]));
  }
  EXPECT_EQ(m.gauge_value("ncnas_server_active_tenants"), 0.0);

  // Labeled families must render as valid OpenMetrics: one TYPE line per
  // family, label variants attributed to it.
  std::string error;
  EXPECT_TRUE(obs::validate_openmetrics(obs::openmetrics_text(m), &error)) << error;

  const std::string json = server.tenants_json();
  EXPECT_NE(json.find("\"name\":\"m-one\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"finished\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
}

TEST(SearchServer, TenantCountersAreExposedAtZeroFromAdmission) {
  // A scrape between admission and the tenant's first slice must already
  // find its series: a dashboard or a gate grepping for the tenant would
  // otherwise see nothing until it has an evaluation.
  const space::SearchSpace space = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  obs::Telemetry telemetry;
  const obs::Exporter& exporter = telemetry.enable_exporter();
  ServeConfig scfg;
  scfg.total_slots = 12;
  scfg.quantum_seconds = 200.0;
  scfg.state_dir = scratch_dir("zero_counters");
  scfg.telemetry = &telemetry;
  SearchServer server(scfg);
  TenantSpec spec;
  spec.name = "early";
  spec.space = &space;
  spec.dataset = &ds;
  spec.config = small_config(nas::SearchStrategy::kRandom);
  const std::uint32_t id = server.submit(std::move(spec));
  ASSERT_EQ(server.session(id).summary().evals, 0u);
  const std::string text = exporter.metrics_text();
  for (const char* family : {"ncnas_tenant_evals_total", "ncnas_tenant_slices_total",
                             "ncnas_tenant_preemptions_total", "ncnas_tenant_grants_total"}) {
    EXPECT_NE(text.find(std::string(family) + "{tenant=\"early\"} 0\n"), std::string::npos)
        << family << " missing from\n" << text;
  }
  std::string error;
  EXPECT_TRUE(obs::validate_openmetrics(text, &error)) << error;

  ASSERT_TRUE(server.step());
  const std::uint64_t evals = server.session(id).summary().evals;
  ASSERT_GT(evals, 0u);
  EXPECT_EQ(telemetry.metrics().snapshot().counter_value(
                "ncnas_tenant_evals_total{tenant=\"early\"}"),
            evals);
}

}  // namespace
}  // namespace ncnas::serve
