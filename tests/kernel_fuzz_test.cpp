// Seeded randomized differential fuzz harness for the kernel tiers.
//
// Every iteration draws a random problem (shape, construction path, special
// values, aliasing) and a random kernel configuration (thread count, block
// geometry, dispatch thresholds), then requires the result to be
// byte-for-byte identical to the serial reference kernels.
// 1000 iterations per op; the base seed prints at startup and can be
// overridden with --seed=N to replay a failing run exactly.
//
// This is the property half of the determinism contract (tensor/ops.hpp):
// the hand-picked shapes in kernel_diff_test pin the known dispatch edges,
// the fuzzer hunts for the ones nobody thought of.
//
// --runs=N repeats the whole suite N times, rotating the seed each run
// (splitmix64 of base+run; run 0 keeps the base seed untouched so a --seed=S
// replay reproduces exactly). Any failing run prints its absolute seed on a
// FAILING SEED line — replay that one run with --seed=S, no --runs needed.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/tensor.hpp"

namespace {

using ncnas::tensor::KernelConfig;
using ncnas::tensor::KernelConfigGuard;
using ncnas::tensor::Rng;
using ncnas::tensor::Tensor;

std::uint64_t g_seed = 0xF0221DBeefULL;
constexpr int kIters = 1000;

std::size_t hardware_threads() {
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// One fuzzing stream, salted per-op so the ops explore independent spaces
/// while staying reproducible from the single base seed.
class Fuzz {
 public:
  explicit Fuzz(std::uint64_t salt) : rng_(g_seed ^ salt) {}

  /// Dimension skewed toward panel/block boundaries and small odd sizes;
  /// occasionally 0 and occasionally larger than every block dimension.
  std::size_t dim() {
    const double roll = rng_.uniform();
    if (roll < 0.04) return 0;
    if (roll < 0.30) {
      // Hug the interesting boundaries: micro rows (4/6), vector chunks
      // (8/16), panels (32), default blocks (64).
      static constexpr std::size_t kEdges[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17,
                                               31, 32, 33, 47, 48, 63, 64, 65};
      return kEdges[rng_.uniform_int(std::size(kEdges))];
    }
    if (roll < 0.95) return 1 + static_cast<std::size_t>(rng_.uniform_int(40));
    return 66 + static_cast<std::size_t>(rng_.uniform_int(80));
  }

  /// A random kernel configuration.
  KernelConfig config() {
    KernelConfig cfg;
    cfg.threads = 1 + rng_.uniform_int(hardware_threads());
    static constexpr std::size_t kRows[] = {1, 3, 4, 8, 16, 64, 256};
    static constexpr std::size_t kCols[] = {1, 16, 32, 48, 64, 256};
    cfg.block_rows = kRows[rng_.uniform_int(std::size(kRows))];
    cfg.block_cols = kCols[rng_.uniform_int(std::size(kCols))];
    // Mostly force the blocked tier; sometimes leave real thresholds in so
    // the reference fallback and its crossover get fuzzed too.
    cfg.min_blocked_flops = rng_.uniform() < 0.8 ? 0 : KernelConfig{}.min_blocked_flops;
    cfg.min_parallel_elems = rng_.uniform() < 0.8 ? 0 : KernelConfig{}.min_parallel_elems;
    return cfg;
  }

  /// Random tensor; sometimes built flat and reshaped into place (exercising
  /// the reshape path), sometimes seeded with non-finite values, -0, or
  /// denormals.
  Tensor tensor(std::vector<std::size_t> shape) {
    const std::size_t n = ncnas::tensor::numel(shape);
    Tensor t = rng_.uniform() < 0.25 ? Tensor({n}).reshaped(shape) : Tensor(shape);
    for (float& v : t.flat()) v = static_cast<float>(rng_.normal());
    if (n != 0 && rng_.uniform() < 0.08) {
      static const float kSpecials[] = {
          std::numeric_limits<float>::quiet_NaN(), std::numeric_limits<float>::infinity(),
          -std::numeric_limits<float>::infinity(), -0.0f, 1e-42f, -1e-42f};
      const std::size_t hits = 1 + rng_.uniform_int(3);
      for (std::size_t h = 0; h < hits; ++h) {
        t[rng_.uniform_int(n)] = kSpecials[rng_.uniform_int(std::size(kSpecials))];
      }
    }
    return t;
  }

  void poison(Tensor& t) {
    for (float& v : t.flat()) v = -123.75f;
  }

  double uniform() { return rng_.uniform(); }
  std::uint64_t uniform_int(std::uint64_t n) { return rng_.uniform_int(n); }

 private:
  Rng rng_;
};

/// Shared driver for the three gemm variants. `shape_a` / `shape_b` map the
/// logical (m, k, n) onto storage shapes; `op` / `op_ref` are the entry
/// points under test and the oracle.
void fuzz_gemm(std::uint64_t salt, const char* name,
               std::vector<std::size_t> (*shape_a)(std::size_t, std::size_t, std::size_t),
               std::vector<std::size_t> (*shape_b)(std::size_t, std::size_t, std::size_t),
               void (*op)(const Tensor&, const Tensor&, Tensor&),
               void (*op_ref)(const Tensor&, const Tensor&, Tensor&)) {
  Fuzz fz(salt);
  for (int it = 0; it < kIters; ++it) {
    const std::size_t m = fz.dim(), k = fz.dim(), n = fz.dim();
    const Tensor a = fz.tensor(shape_a(m, k, n));
    const Tensor b = fz.tensor(shape_b(m, k, n));
    Tensor want({m, n});
    op_ref(a, b, want);
    const KernelConfig cfg = fz.config();
    KernelConfigGuard guard(cfg);
    Tensor got({m, n});
    fz.poison(got);
    op(a, b, got);
    ASSERT_TRUE(bytes_equal(want, got))
        << name << " iter=" << it << " " << m << "x" << k << "x" << n
        << " threads=" << cfg.threads << " blocks=" << cfg.block_rows << "x" << cfg.block_cols
        << " min_flops=" << cfg.min_blocked_flops << " (replay with --seed=" << g_seed << ")";
  }
}

std::vector<std::size_t> nk_mk(std::size_t m, std::size_t k, std::size_t) { return {m, k}; }
std::vector<std::size_t> nk_kn(std::size_t, std::size_t k, std::size_t n) { return {k, n}; }
std::vector<std::size_t> nk_nk(std::size_t, std::size_t k, std::size_t n) { return {n, k}; }
std::vector<std::size_t> nk_km(std::size_t m, std::size_t k, std::size_t) { return {k, m}; }

TEST(KernelFuzz, GemmAllTiersBitwiseVsReference) {
  fuzz_gemm(0x67656D6D, "gemm", nk_mk, nk_kn, ncnas::tensor::gemm, ncnas::tensor::gemm_ref);
}

TEST(KernelFuzz, GemmNtAllTiersBitwiseVsReference) {
  fuzz_gemm(0x676D6E74, "gemm_nt", nk_mk, nk_nk, ncnas::tensor::gemm_nt,
            ncnas::tensor::gemm_nt_ref);
}

TEST(KernelFuzz, GemmTnAllTiersBitwiseVsReference) {
  fuzz_gemm(0x676D746E, "gemm_tn", nk_km, nk_kn, ncnas::tensor::gemm_tn,
            ncnas::tensor::gemm_tn_ref);
}

TEST(KernelFuzz, AxpyScaleAllTiersBitwiseVsReference) {
  Fuzz fz(0x61787079);
  for (int it = 0; it < kIters; ++it) {
    // Sizes span from empty through several parallel grains.
    const std::size_t n = it % 7 == 0 ? fz.uniform_int(200'000) : fz.dim() * (1 + fz.dim());
    const Tensor x = fz.tensor({n});
    const Tensor y0 = fz.tensor({n});
    const float alpha = static_cast<float>(fz.uniform() * 4.0 - 2.0);
    const bool alias = fz.uniform() < 0.15;  // y += alpha * y: legal, per-element

    Tensor want = y0;
    {
      KernelConfigGuard serial{KernelConfig{}};
      ncnas::tensor::axpy(alpha, alias ? want : x, want);
      ncnas::tensor::scale_inplace(want, alpha);
    }
    const KernelConfig cfg = fz.config();
    KernelConfigGuard guard(cfg);
    Tensor got = y0;
    ncnas::tensor::axpy(alpha, alias ? got : x, got);
    ncnas::tensor::scale_inplace(got, alpha);
    ASSERT_TRUE(bytes_equal(want, got))
        << "axpy/scale iter=" << it << " n=" << n << " alias=" << alias
        << " threads=" << cfg.threads << " (replay with --seed=" << g_seed << ")";
  }
}

TEST(KernelFuzz, RowwiseOpsAllTiersBitwiseVsReference) {
  Fuzz fz(0x726F7773);
  for (int it = 0; it < kIters; ++it) {
    const std::size_t m = fz.dim(), n = fz.dim();
    if (n == 0 || m == 0) continue;  // rank-2 ops require nonempty dims
    const Tensor g = fz.tensor({m, n});
    const Tensor bias = fz.tensor({n});
    const Tensor y0 = fz.tensor({m, n});
    const Tensor sums0 = fz.tensor({n});

    Tensor want_bias = y0;
    Tensor want_sums = sums0;
    {
      KernelConfigGuard serial{KernelConfig{}};
      ncnas::tensor::add_row_bias(want_bias, bias);
      ncnas::tensor::accumulate_col_sums(g, want_sums);
    }
    const KernelConfig cfg = fz.config();
    KernelConfigGuard guard(cfg);
    Tensor got_bias = y0;
    ncnas::tensor::add_row_bias(got_bias, bias);
    Tensor got_sums = sums0;
    ncnas::tensor::accumulate_col_sums(g, got_sums);
    ASSERT_TRUE(bytes_equal(want_bias, got_bias) && bytes_equal(want_sums, got_sums))
        << "rowwise iter=" << it << " " << m << "x" << n << " threads=" << cfg.threads
        << " (replay with --seed=" << g_seed << ")";
  }
}

/// splitmix64 — decorrelates the per-run seeds so --runs=N explores N
/// genuinely different streams instead of N neighbors of the base seed.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Rotates g_seed at the start of each --gtest_repeat iteration and prints
/// the absolute failing seed at the end of any iteration that failed, so a
/// multi-run CI log always names the exact seed to replay.
class SeedRotator : public ::testing::Environment {
 public:
  explicit SeedRotator(std::uint64_t base) : base_(base) {}

  void SetUp() override {
    g_seed = run_ == 0 ? base_ : mix64(base_ + run_);
    std::printf("kernel_fuzz_test run %d seed: %llu (replay with --seed=%llu)\n", run_ + 1,
                static_cast<unsigned long long>(g_seed),
                static_cast<unsigned long long>(g_seed));
    std::fflush(stdout);
    ++run_;
  }

  void TearDown() override {
    if (::testing::UnitTest::GetInstance()->failed_test_count() > 0) {
      std::printf("kernel_fuzz_test FAILING SEED: %llu (replay with --seed=%llu)\n",
                  static_cast<unsigned long long>(g_seed),
                  static_cast<unsigned long long>(g_seed));
      std::fflush(stdout);
    }
  }

 private:
  std::uint64_t base_;
  int run_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  int runs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      g_seed = std::stoull(arg.substr(7));
    } else if (arg == "--seed" && i + 1 < argc) {
      g_seed = std::stoull(argv[++i]);
    } else if (arg.rfind("--runs=", 0) == 0) {
      runs = std::max(1, std::stoi(arg.substr(7)));
    } else if (arg == "--runs" && i + 1 < argc) {
      runs = std::max(1, std::stoi(argv[++i]));
    }
  }
  std::printf("kernel_fuzz_test base seed: %llu, runs: %d (override with --seed=N --runs=N)\n",
              static_cast<unsigned long long>(g_seed), runs);
  ::testing::GTEST_FLAG(repeat) = runs;
  ::testing::AddGlobalTestEnvironment(new SeedRotator(g_seed));
  return RUN_ALL_TESTS();
}
