#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ncnas/exec/evaluator.hpp"
#include "ncnas/exec/shared_cache.hpp"
#include "ncnas/exec/utilization.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas::exec {
namespace {

data::Dataset tiny_nt3() {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(5, dims);
}

TEST(CostModel, DeterministicAndMonotone) {
  const CostModel cm{.startup_seconds = 10.0, .seconds_per_megaunit = 2.0};
  const double d1 = cm.duration(10000, 100, 1, "a");
  EXPECT_DOUBLE_EQ(d1, cm.duration(10000, 100, 1, "a"));
  EXPECT_GT(cm.duration(20000, 100, 1, "a"), d1);
  EXPECT_GT(cm.duration(10000, 200, 1, "a"), d1);
  EXPECT_GT(cm.duration(10000, 100, 2, "a"), d1);
}

TEST(CostModel, JitterStaysInBand) {
  const CostModel cm{.startup_seconds = 0.0, .seconds_per_megaunit = 1.0, .jitter_frac = 0.2};
  const double base = 1.0;  // 1e6 units
  for (const char* key : {"a", "b", "c", "d", "e", "f"}) {
    const double d = cm.duration(1000, 1000, 1, key);
    EXPECT_GE(d, base * 0.8 - 1e-9);
    EXPECT_LE(d, base * 1.2 + 1e-9);
  }
}

TEST(CostModel, TimeoutPredicate) {
  const CostModel cm{.timeout_seconds = 600.0};
  EXPECT_FALSE(cm.times_out(599.0));
  EXPECT_TRUE(cm.times_out(601.0));
}

TEST(EvalContextKey, CanonicalEncodingIsInjectiveOverAConfigGrid) {
  // Property: the context key is a canonical encoding of (dataset, fidelity,
  // cost) — equal configs encode equally, and every distinct configuration in
  // a full cross-product grid encodes distinctly. A collision anywhere means
  // the shared cache could serve a reward computed under a different recipe.
  std::vector<data::Dataset> datasets;
  for (const std::uint32_t length : {32u, 64u}) {
    data::Nt3Dims dims;
    dims.train = 64;
    dims.valid = 32;
    dims.length = length;
    dims.motif = 6;
    datasets.push_back(data::make_nt3(5, dims));
  }

  std::vector<FidelityConfig> fidelities;
  for (const std::uint32_t epochs : {1u, 2u}) {
    for (const double subset : {1.0, 0.5}) {
      for (const float lr : {0.001f, 0.01f}) {
        for (const double valid : {1.0, 0.25}) {
          FidelityConfig f;
          f.epochs = epochs;
          f.subset_fraction = subset;
          f.learning_rate = lr;
          f.valid_fraction = valid;
          fidelities.push_back(f);
        }
      }
    }
  }
  // The fraction fields must not collapse into one another: a config that
  // halves the training subset is not a config that halves the validation set.
  {
    FidelityConfig swapped;
    swapped.subset_fraction = 0.2;
    swapped.valid_fraction = 0.75;
    fidelities.push_back(swapped);
    FidelityConfig mirrored;
    mirrored.subset_fraction = 0.75;
    mirrored.valid_fraction = 0.2;
    fidelities.push_back(mirrored);
  }

  std::vector<CostModel> costs;
  for (const double startup : {20.0, 40.0}) {
    for (const double timeout : {600.0, 1200.0}) {
      CostModel c;
      c.startup_seconds = startup;
      c.seconds_per_megaunit = 1.0;
      c.timeout_seconds = timeout;
      costs.push_back(c);
    }
  }

  std::set<std::string> keys;
  std::size_t combos = 0;
  for (const data::Dataset& ds : datasets) {
    for (const FidelityConfig& fid : fidelities) {
      for (const CostModel& cost : costs) {
        const std::string key = eval_context_key(ds, fid, cost);
        EXPECT_FALSE(key.empty());
        EXPECT_EQ(key, eval_context_key(ds, fid, cost))
            << "same config must encode to the same key";
        const bool inserted = keys.insert(key).second;
        EXPECT_TRUE(inserted) << "collision for key '" << key << "'";
        ++combos;
      }
    }
  }
  EXPECT_EQ(keys.size(), combos);
  EXPECT_EQ(combos, datasets.size() * fidelities.size() * costs.size());
}

TEST(TrainingEvaluator, ProducesRealRewards) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const TrainingEvaluator eval(s, ds, {.epochs = 1, .subset_fraction = 1.0}, CostModel{});
  tensor::Rng rng(1);
  const space::ArchEncoding arch = s.random_arch(rng);
  const EvalResult r = eval.evaluate(arch, 99);
  EXPECT_GE(r.reward, 0.0f);  // accuracy metric
  EXPECT_LE(r.reward, 1.0f);
  EXPECT_GT(r.params, 0u);
  EXPECT_GT(r.sim_duration, 0.0);
  EXPECT_FALSE(r.cache_hit);
}

TEST(TrainingEvaluator, DeterministicPerSeed) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const TrainingEvaluator eval(s, ds, {.epochs = 1, .subset_fraction = 0.5}, CostModel{});
  tensor::Rng rng(2);
  const space::ArchEncoding arch = s.random_arch(rng);
  const EvalResult a = eval.evaluate(arch, 7);
  const EvalResult b = eval.evaluate(arch, 7);
  EXPECT_EQ(a.reward, b.reward);
  EXPECT_EQ(a.params, b.params);
  // Agent-specific seeds: a different seed may yield a different reward
  // (paper: same arch from different agents gets different rewards).
  const EvalResult c = eval.evaluate(arch, 8);
  EXPECT_EQ(a.params, c.params);  // same architecture, same size
}

TEST(TrainingEvaluator, TimeoutYieldsFloorRewardAndSkipsTraining) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  CostModel cm;
  cm.timeout_seconds = 1.0;       // everything times out
  cm.startup_seconds = 50.0;
  const TrainingEvaluator eval(s, ds, {.epochs = 1, .subset_fraction = 1.0}, cm);
  tensor::Rng rng(3);
  const EvalResult r = eval.evaluate(s.random_arch(rng), 1);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.reward, 0.0f);                       // ACC floor
  EXPECT_DOUBLE_EQ(r.sim_duration, cm.timeout_seconds);  // worker held till kill
}

TEST(TrainingEvaluator, R2FloorIsMinusOne) {
  data::ComboDims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.expression = 8;
  dims.descriptors = 8;
  const data::Dataset ds = data::make_combo(5, dims);
  const space::SearchSpace s = space::combo_small_space();
  CostModel cm;
  cm.timeout_seconds = 0.5;
  const TrainingEvaluator eval(s, ds, {.epochs = 1, .subset_fraction = 0.1}, cm);
  tensor::Rng rng(4);
  const EvalResult r = eval.evaluate(s.random_arch(rng), 1);
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.reward, -1.0f);
}

/// The value of one of the `ncnas_eval_cache_*_total` registry counters.
std::uint64_t cache_counter(const obs::Telemetry& tel, const std::string& name) {
  return tel.metrics_snapshot().counter_value("ncnas_eval_cache_" + name + "_total");
}

TEST(CachedEvaluator, HitsAndMisses) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const TrainingEvaluator inner(s, ds, {.epochs = 1, .subset_fraction = 1.0}, CostModel{});
  obs::Telemetry tel;
  CachedEvaluator cache(inner.context_key());
  cache.set_telemetry(&tel);
  tensor::Rng rng(5);
  const space::ArchEncoding arch = s.random_arch(rng);
  EXPECT_FALSE(cache.lookup(arch).has_value());
  const EvalResult first = inner.evaluate(arch, 1);
  cache.insert(arch, first);
  const std::optional<EvalResult> second = cache.lookup(arch);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->reward, first.reward);
  EXPECT_EQ(cache_counter(tel, "hits"), 1u);
  EXPECT_EQ(cache_counter(tel, "misses"), 1u);
  EXPECT_EQ(cache_counter(tel, "inserts"), 1u);
  EXPECT_EQ(cache.unique_archs(), 1u);
}

TEST(CachedEvaluator, SplitPhaseLookupInsert) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const TrainingEvaluator inner(s, ds, {.epochs = 1, .subset_fraction = 1.0}, CostModel{});
  const CachedEvaluator cache(inner.context_key());
  tensor::Rng rng(6);
  const space::ArchEncoding arch = s.random_arch(rng);
  EXPECT_FALSE(cache.lookup(arch).has_value());
  EvalResult r;
  r.reward = 0.5f;
  cache.insert(arch, r);
  const auto hit = cache.lookup(arch);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->reward, 0.5f);
}

TEST(CachedEvaluator, FailedThenRetriedEvalDoesNotPoisonCache) {
  // Property behind the driver's retry-exhaustion handling: the driver
  // pre-inserts the real result, then erases it when every dispatch attempt
  // fails. A later regeneration must re-evaluate (miss), not replay a
  // floored non-measurement — and the hit/miss counters must reconcile with
  // every lookup made along the way.
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const TrainingEvaluator inner(s, ds, {.epochs = 1, .subset_fraction = 1.0}, CostModel{});
  obs::Telemetry tel;
  CachedEvaluator cache(inner.context_key());
  cache.set_telemetry(&tel);
  tensor::Rng rng(7);
  const space::ArchEncoding arch = s.random_arch(rng);

  EXPECT_FALSE(cache.lookup(arch).has_value());  // miss 1: first generation
  EvalResult real;
  real.reward = 0.9f;
  cache.insert(arch, real);                      // the driver primes the cache
  cache.erase(arch);                             // ...then the dispatch fails out
  EXPECT_FALSE(cache.lookup(arch).has_value());  // miss 2: no stale replay
  cache.insert(arch, real);                      // retry on regeneration succeeds
  const auto hit = cache.lookup(arch);           // hit 1
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->reward, 0.9f);
  EXPECT_TRUE(hit->cache_hit);

  EXPECT_EQ(cache_counter(tel, "hits"), 1u);
  EXPECT_EQ(cache_counter(tel, "misses"), 2u);  // one count per lookup, exactly
  EXPECT_EQ(cache_counter(tel, "erases"), 1u);
  EXPECT_EQ(cache.unique_archs(), 1u);

  // Erasing an absent key is a harmless no-op (exhaustion after the driver
  // already erased, or with caching disabled).
  cache.erase(arch);
  cache.erase(arch);
  EXPECT_EQ(cache.unique_archs(), 0u);
  EXPECT_EQ(cache_counter(tel, "erases"), 2u);
}

TEST(CachedEvaluator, StateRoundTripPreservesEntriesAndCounters) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const TrainingEvaluator inner(s, ds, {.epochs = 1, .subset_fraction = 1.0}, CostModel{});
  obs::Telemetry tel;
  CachedEvaluator cache(inner.context_key());
  cache.set_telemetry(&tel);
  tensor::Rng rng(9);
  std::vector<space::ArchEncoding> archs;
  for (int i = 0; i < 4; ++i) archs.push_back(s.random_arch(rng));
  for (const auto& a : archs) {
    EXPECT_FALSE(cache.lookup(a).has_value());  // 4 misses
    cache.insert(a, inner.evaluate(a, 1));
  }
  EXPECT_TRUE(cache.lookup(archs[0]).has_value());  // 1 hit

  const CachedEvaluator::State st = cache.export_state();
  EXPECT_EQ(st.entries.size(), 4u);
  // Canonical form: entries sorted by key, so equal caches serialize equally.
  for (std::size_t i = 1; i < st.entries.size(); ++i) {
    EXPECT_LT(st.entries[i - 1].first, st.entries[i].first);
  }

  // The counts live in the registry, not in the state: a restored cache on
  // the same sink keeps counting where the original left off.
  CachedEvaluator restored(inner.context_key());
  restored.set_telemetry(&tel);
  restored.import_state(st);
  EXPECT_EQ(cache_counter(tel, "hits"), 1u);
  EXPECT_EQ(cache_counter(tel, "misses"), 4u);
  EXPECT_EQ(restored.unique_archs(), cache.unique_archs());
  for (const auto& a : archs) {
    const auto orig = cache.lookup(a);
    const auto back = restored.lookup(a);
    ASSERT_TRUE(orig.has_value());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->reward, orig->reward);
    EXPECT_EQ(back->params, orig->params);
    EXPECT_DOUBLE_EQ(back->sim_duration, orig->sim_duration);
    EXPECT_EQ(back->timed_out, orig->timed_out);
  }
  EXPECT_EQ(cache_counter(tel, "hits"), 1u + 2u * archs.size());
  EXPECT_EQ(cache_counter(tel, "misses"), 4u);
}

TEST(Utilization, StateRoundTripReproducesSeriesBitForBit) {
  UtilizationMonitor mon(4);
  // Enough unordered fractional intervals that a re-summed busy_seconds
  // would accumulate differently from the carried-over original.
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double len = 0.1 + 0.0137 * (i % 17);
    mon.add_busy_interval(t, t + len);
    t += 0.73;
  }
  mon.add_capacity_loss(55.5);

  UtilizationMonitor restored(4);
  restored.import_state(mon.export_state());
  EXPECT_EQ(restored.busy_worker_seconds(), mon.busy_worker_seconds());  // exact
  EXPECT_EQ(restored.interval_count(), mon.interval_count());
  EXPECT_EQ(restored.capacity_losses(), mon.capacity_losses());
  const auto a = mon.series(150.0, 10.0);
  const auto b = restored.series(150.0, 10.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_EQ(mon.average(150.0), restored.average(150.0));
}

TEST(HeadFor, PicksTaskByMetric) {
  const data::Dataset nt3 = tiny_nt3();
  EXPECT_EQ(head_for(nt3).kind, space::TaskHead::Kind::kClassification);
  data::ComboDims dims;
  dims.train = 16;
  dims.valid = 8;
  dims.expression = 4;
  dims.descriptors = 4;
  const data::Dataset combo = data::make_combo(1, dims);
  EXPECT_EQ(head_for(combo).kind, space::TaskHead::Kind::kRegression);
}

TEST(Utilization, SingleWorkerFullyBusy) {
  UtilizationMonitor mon(1);
  mon.add_busy_interval(0.0, 100.0);
  EXPECT_DOUBLE_EQ(mon.average(100.0), 1.0);
  const auto series = mon.series(100.0, 10.0);
  ASSERT_EQ(series.size(), 10u);
  for (double v : series) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Utilization, PartialBusyFractions) {
  UtilizationMonitor mon(2);
  mon.add_busy_interval(0.0, 50.0);   // worker A, first half
  mon.add_busy_interval(0.0, 100.0);  // worker B, whole window
  EXPECT_DOUBLE_EQ(mon.average(100.0), 0.75);
  const auto series = mon.series(100.0, 50.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 1.0);
  EXPECT_DOUBLE_EQ(series[1], 0.5);
}

TEST(Utilization, IntervalSpanningBuckets) {
  UtilizationMonitor mon(1);
  mon.add_busy_interval(5.0, 25.0);
  const auto series = mon.series(30.0, 10.0);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 0.5);
  EXPECT_DOUBLE_EQ(series[1], 1.0);
  EXPECT_DOUBLE_EQ(series[2], 0.5);
}

TEST(Utilization, RejectsBadInputs) {
  EXPECT_THROW(UtilizationMonitor(0), std::invalid_argument);
  UtilizationMonitor mon(1);
  EXPECT_THROW(mon.add_busy_interval(5.0, 4.0), std::invalid_argument);
  EXPECT_THROW((void)mon.series(0.0, 10.0), std::invalid_argument);
}

TEST(Utilization, CapacityLossShrinksTheDenominator) {
  // Two workers; one dies at t=50. The survivor is fully busy throughout, so
  // utilization of the capacity that actually existed is 1.0 after the crash.
  UtilizationMonitor mon(2);
  mon.add_busy_interval(0.0, 50.0);    // doomed worker, busy until its death
  mon.add_busy_interval(0.0, 100.0);   // survivor, busy the whole window
  mon.add_capacity_loss(50.0);
  EXPECT_EQ(mon.capacity_losses(), 1u);
  const auto series = mon.series(100.0, 50.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 1.0);    // 100 busy / (100 - 0 lost)
  EXPECT_DOUBLE_EQ(series[1], 1.0);    // 50 busy / (100 - 50 lost)
  // average: 150 busy worker-seconds over 2*100 - 50 available.
  EXPECT_DOUBLE_EQ(mon.average(100.0), 1.0);
}

TEST(Utilization, IdleSurvivorAfterCrashIsStillMeasured) {
  UtilizationMonitor mon(2);
  mon.add_busy_interval(0.0, 50.0);    // survivor busy only in the first half
  mon.add_capacity_loss(50.0);
  const auto series = mon.series(100.0, 50.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 0.5);    // 50 busy / 100 available
  EXPECT_DOUBLE_EQ(series[1], 0.0);    // idle survivor: 0 / 50
  EXPECT_DOUBLE_EQ(mon.average(100.0), 50.0 / 150.0);
}

TEST(Utilization, AllCapacityLostDegradesToZero) {
  // A plan may kill every worker; the monitor must degrade, not divide by 0.
  UtilizationMonitor mon(1);
  mon.add_busy_interval(0.0, 10.0);
  mon.add_capacity_loss(10.0);
  const auto series = mon.series(20.0, 10.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 1.0);
  EXPECT_DOUBLE_EQ(series[1], 0.0);    // zero denominator: reported as idle
  EXPECT_THROW(mon.add_capacity_loss(-1.0), std::invalid_argument);
  EXPECT_THROW(mon.add_capacity_loss(5.0), std::invalid_argument);  // > workers
}

}  // namespace
}  // namespace ncnas::exec
