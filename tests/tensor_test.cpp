#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "ncnas/nas/driver.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/tensor.hpp"
#include "ncnas/tensor/thread_pool.hpp"

namespace ncnas::tensor {
namespace {

TEST(Shape, NumelAndToString) {
  EXPECT_EQ(numel({}), 0u);
  EXPECT_EQ(numel({5}), 5u);
  EXPECT_EQ(numel({2, 3, 4}), 24u);
  EXPECT_EQ(to_string({2, 3}), "[2, 3]");
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({3, 4});
  EXPECT_EQ(t.size(), 12u);
  EXPECT_EQ(t.rank(), 2u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FullAndFill) {
  Tensor t = Tensor::full({2, 2}, 3.5f);
  EXPECT_EQ(t(1, 1), 3.5f);
  t.fill(-1.0f);
  EXPECT_EQ(t(0, 0), -1.0f);
}

TEST(Tensor, OfInitializerLists) {
  const Tensor v = Tensor::of({1, 2, 3});
  EXPECT_EQ(v.shape(), Shape({3}));
  EXPECT_EQ(v[2], 3.0f);
  const Tensor m = Tensor::of2d({{1, 2}, {3, 4}});
  EXPECT_EQ(m.shape(), Shape({2, 2}));
  EXPECT_EQ(m(1, 0), 3.0f);
}

TEST(Tensor, Of2dRejectsRaggedRows) {
  EXPECT_THROW((void)Tensor::of2d({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Tensor, DataSizeMustMatchShape) {
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  const Tensor m = Tensor::of2d({{1, 2, 3}, {4, 5, 6}});
  const Tensor r = m.reshaped({3, 2});
  EXPECT_EQ(r(2, 1), 6.0f);
  EXPECT_THROW((void)m.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ThreeDAccessor) {
  Tensor t({2, 3, 4});
  t(1, 2, 3) = 9.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 9.0f);
}

TEST(Tensor, EqualityAndDiff) {
  const Tensor a = Tensor::of({1, 2, 3});
  Tensor b = a;
  EXPECT_TRUE(a == b);
  b[1] = 2.5f;
  EXPECT_FALSE(a == b);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
  // Equality compares bytes: the same NaN bytes are equal, and the two
  // zeros, which float == calls equal, are not.
  const Tensor nan_a = Tensor::of({1, std::numeric_limits<float>::quiet_NaN()});
  const Tensor nan_b = nan_a;
  EXPECT_TRUE(nan_a == nan_b);
  EXPECT_FALSE(Tensor::of({-0.0f}) == Tensor::of({0.0f}));
}

TEST(Tensor, RequireShapeThrowsWithMessage) {
  const Tensor t({2, 3});
  EXPECT_NO_THROW(t.require_shape({2, 3}, "x"));
  EXPECT_THROW(t.require_shape({3, 2}, "x"), std::invalid_argument);
}

TEST(Ops, GemmMatchesHandComputation) {
  const Tensor a = Tensor::of2d({{1, 2}, {3, 4}});
  const Tensor b = Tensor::of2d({{5, 6}, {7, 8}});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(Ops, GemmRejectsMismatchedInner) {
  const Tensor a({2, 3});
  const Tensor b({4, 2});
  Tensor c({2, 2});
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
}

TEST(Ops, GemmNtEqualsExplicitTranspose) {
  const Tensor a = Tensor::of2d({{1, 2, 3}, {4, 5, 6}});
  const Tensor bt = Tensor::of2d({{1, 0, 2}, {0, 1, 1}});  // B^T is 2x3; B is 3x2
  Tensor c({2, 2});
  gemm_nt(a, bt, c);
  // a * b where b = bt^T = [[1,0],[0,1],[2,1]]
  EXPECT_FLOAT_EQ(c(0, 0), 1 * 1 + 2 * 0 + 3 * 2);
  EXPECT_FLOAT_EQ(c(0, 1), 1 * 0 + 2 * 1 + 3 * 1);
  EXPECT_FLOAT_EQ(c(1, 0), 4 * 1 + 5 * 0 + 6 * 2);
  EXPECT_FLOAT_EQ(c(1, 1), 4 * 0 + 5 * 1 + 6 * 1);
}

TEST(Ops, GemmTnEqualsExplicitTranspose) {
  const Tensor at = Tensor::of2d({{1, 2}, {3, 4}, {5, 6}});  // A^T stored: A is 2x3? no: gemm_tn computes A^T B with A (k,m)
  const Tensor b = Tensor::of2d({{1, 0}, {0, 1}, {1, 1}});
  Tensor c({2, 2});
  gemm_tn(at, b, c);
  // A^T is 2x3 with rows (1,3,5) and (2,4,6).
  EXPECT_FLOAT_EQ(c(0, 0), 1 * 1 + 3 * 0 + 5 * 1);
  EXPECT_FLOAT_EQ(c(0, 1), 1 * 0 + 3 * 1 + 5 * 1);
  EXPECT_FLOAT_EQ(c(1, 0), 2 * 1 + 4 * 0 + 6 * 1);
  EXPECT_FLOAT_EQ(c(1, 1), 2 * 0 + 4 * 1 + 6 * 1);
}

TEST(Ops, AxpyAndScale) {
  Tensor y = Tensor::of({1, 1, 1});
  const Tensor x = Tensor::of({1, 2, 3});
  axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[2], 7.0f);
  scale_inplace(y, 0.5f);
  EXPECT_FLOAT_EQ(y[0], 1.5f);
}

TEST(Ops, RowBiasAndColSums) {
  Tensor y = Tensor::of2d({{1, 2}, {3, 4}});
  add_row_bias(y, Tensor::of({10, 20}));
  EXPECT_FLOAT_EQ(y(1, 1), 24.0f);
  Tensor sums({2});
  accumulate_col_sums(y, sums);
  EXPECT_FLOAT_EQ(sums[0], 11.0f + 13.0f);
  EXPECT_FLOAT_EQ(sums[1], 22.0f + 24.0f);
}

TEST(Ops, Reductions) {
  const Tensor t = Tensor::of({1, 2, 3, 4});
  EXPECT_FLOAT_EQ(sum(t), 10.0f);
  EXPECT_FLOAT_EQ(mean(t), 2.5f);
  EXPECT_FLOAT_EQ(dot(t, t), 30.0f);
  EXPECT_FLOAT_EQ(squared_norm(t), 30.0f);
}

// --- kernel determinism invariants -----------------------------------------

/// The blocked tier on every gemm, with small blocks.
KernelConfig blocked_config() {
  KernelConfig cfg;
  cfg.min_blocked_flops = 0;
  cfg.block_rows = 16;
  cfg.block_cols = 64;
  return cfg;
}

TEST(KernelDeterminism, RandomShapesByteIdenticalSerialVsParallel) {
  // Property test: same seed + same shapes => byte-identical buffers whether
  // the serial reference kernels run on this thread or the blocked kernels
  // run on driver-pool workers, many products at once.
  struct Case {
    Tensor a, bn, bt, at;
    Tensor c, cnt, ctn;  // serial reference results
    Tensor c_par, cnt_par, ctn_par;
  };
  Rng rng(20260806);
  std::vector<Case> cases(40);
  for (Case& cs : cases) {
    const std::size_t m = 1 + rng.uniform_int(48);
    const std::size_t k = 1 + rng.uniform_int(48);
    const std::size_t n = 1 + rng.uniform_int(48);
    cs.a = Tensor({m, k});
    cs.bn = Tensor({k, n});
    cs.bt = Tensor({n, k});
    cs.at = Tensor({k, m});
    for (float& v : cs.a.flat()) v = static_cast<float>(rng.normal());
    for (float& v : cs.bn.flat()) v = static_cast<float>(rng.normal());
    for (float& v : cs.bt.flat()) v = static_cast<float>(rng.normal());
    for (float& v : cs.at.flat()) v = static_cast<float>(rng.normal());
    cs.c = cs.cnt = cs.ctn = cs.c_par = cs.cnt_par = cs.ctn_par = Tensor({m, n});
    gemm_ref(cs.a, cs.bn, cs.c);
    gemm_nt_ref(cs.a, cs.bt, cs.cnt);
    gemm_tn_ref(cs.at, cs.bn, cs.ctn);
  }

  KernelConfigGuard guard(blocked_config());
  ThreadPool pool(std::max<std::size_t>(2, std::thread::hardware_concurrency()));
  parallel_for(pool, cases.size(), [&](std::size_t i) {
    Case& cs = cases[i];
    gemm(cs.a, cs.bn, cs.c_par);
    gemm_nt(cs.a, cs.bt, cs.cnt_par);
    gemm_tn(cs.at, cs.bn, cs.ctn_par);
  });
  for (const Case& cs : cases) {
    const std::string dims = to_string({cs.a.dim(0), cs.a.dim(1), cs.bn.dim(1)});
    EXPECT_TRUE(cs.c == cs.c_par) << "gemm " << dims;
    EXPECT_TRUE(cs.cnt == cs.cnt_par) << "gemm_nt " << dims;
    EXPECT_TRUE(cs.ctn == cs.ctn_par) << "gemm_tn " << dims;
  }
}

TEST(KernelDeterminism, SearchResultBitIdenticalAcrossKernelTiers) {
  // The end-to-end guarantee: a full driver strategy pass (controller LSTM,
  // PPO updates, reward-estimation training) produces a bit-identical
  // SearchResult on every kernel tier — serial reference, the default
  // config, and blocked on every gemm — for every strategy.
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  const data::Dataset ds = data::make_nt3(5, dims);
  const space::SearchSpace s = space::nt3_small_space();

  const nas::SearchStrategy strategies[] = {
      nas::SearchStrategy::kA3C, nas::SearchStrategy::kA2C, nas::SearchStrategy::kRandom,
      nas::SearchStrategy::kEvolution};
  for (const nas::SearchStrategy strategy : strategies) {
    nas::SearchConfig cfg;
    cfg.strategy = strategy;
    cfg.cluster = {.num_agents = 3, .workers_per_agent = 4};
    cfg.wall_time_seconds = 600.0;
    cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
    cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
    cfg.seed = 11;
    const std::string tag = "strategy " + std::to_string(static_cast<int>(strategy));

    nas::SearchResult baseline;
    {
      KernelConfig reference;
      reference.min_blocked_flops = SIZE_MAX;  // every gemm on the reference kernels
      KernelConfigGuard guard(reference);
      baseline = nas::SearchDriver(s, ds, cfg).run();
    }

    struct Tier {
      const char* label;
      KernelConfig kernels;
    };
    for (const Tier& tier : {Tier{"default", KernelConfig{}}, Tier{"blocked", blocked_config()}}) {
      KernelConfigGuard guard(tier.kernels);
      const nas::SearchResult got = nas::SearchDriver(s, ds, cfg).run();

      ASSERT_EQ(baseline.evals.size(), got.evals.size()) << tag << " tier " << tier.label;
      for (std::size_t i = 0; i < baseline.evals.size(); ++i) {
        EXPECT_EQ(baseline.evals[i].reward, got.evals[i].reward)
            << tag << " tier " << tier.label << " eval " << i;
        EXPECT_EQ(baseline.evals[i].arch, got.evals[i].arch)
            << tag << " tier " << tier.label << " eval " << i;
        EXPECT_DOUBLE_EQ(baseline.evals[i].time, got.evals[i].time)
            << tag << " tier " << tier.label << " eval " << i;
      }
      EXPECT_EQ(baseline.cache_hits, got.cache_hits) << tag << " tier " << tier.label;
      EXPECT_EQ(baseline.unique_archs, got.unique_archs) << tag << " tier " << tier.label;
      EXPECT_EQ(baseline.ppo_updates, got.ppo_updates) << tag << " tier " << tier.label;
      EXPECT_EQ(baseline.converged_early, got.converged_early) << tag << " tier " << tier.label;
      EXPECT_DOUBLE_EQ(baseline.end_time, got.end_time) << tag << " tier " << tier.label;
    }
  }
}

TEST(KernelDeterminism, KernelConfigIsFingerprintNeutral) {
  // Kernel policy must not invalidate saved search logs: fingerprints are
  // computed from the SearchConfig alone, whatever kernels are installed.
  nas::SearchConfig cfg;
  cfg.seed = 42;
  const std::string before = nas::config_fingerprint(cfg, "nt3_small");
  std::string during;
  {
    KernelConfigGuard guard(blocked_config());
    during = nas::config_fingerprint(cfg, "nt3_small");
  }
  EXPECT_EQ(before, during);
  EXPECT_EQ(before, nas::config_fingerprint(cfg, "nt3_small"));
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 16, [](std::size_t i) {
        if (i == 7) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

// The driver's PPO updates block on trainings submitted before them; that
// cannot deadlock only because tasks start in submission order.
TEST(ThreadPool, StartsTasksInSubmissionOrder) {
  constexpr int kTasks = 16;
  const auto hold = [](const std::shared_future<void>& gate) {
    return [gate] { (void)gate.wait_for(std::chrono::minutes(1)); };
  };
  {
    // One worker, held while the queue fills: it runs the queue in order.
    ThreadPool pool(1);
    std::promise<void> open;
    (void)pool.submit(hold(open.get_future().share()));
    std::vector<int> order;
    for (int i = 0; i < kTasks; ++i) (void)pool.submit([&order, i] { order.push_back(i); });
    open.set_value();
    pool.wait_idle();
    std::vector<int> expected(kTasks);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
  }
  {
    // Two workers, a chain of tasks each waiting on its predecessor, queued
    // while both workers are held: every wait is on a task that started
    // earlier, so the chain completes. A pool that started the newest task
    // first would park both workers on tasks that have not started.
    ThreadPool pool(2);
    std::promise<void> open;
    const std::shared_future<void> gate = open.get_future().share();
    (void)pool.submit(hold(gate));
    (void)pool.submit(hold(gate));
    std::vector<std::shared_future<void>> chain;
    for (int i = 0; i < kTasks; ++i) {
      std::shared_future<void> prev = chain.empty() ? gate : chain.back();
      chain.push_back(pool.submit(hold(prev)).share());
    }
    open.set_value();
    EXPECT_EQ(chain.back().wait_for(std::chrono::seconds(30)), std::future_status::ready);
  }
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    (void)pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
}

}  // namespace
}  // namespace ncnas::tensor
