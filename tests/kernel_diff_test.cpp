// Differential oracle suite for the blocked/parallel tensor kernels.
//
// The contract under test (tensor/kernel_config.hpp): blocked kernels — at
// any thread count and any block geometry — produce bytes identical to the
// serial reference kernels. Equality below is exact (EXPECT_EQ on floats /
// Tensor::operator== which is bitwise), never approximate: a one-ULP drift
// is a determinism bug, not noise.

#include <cmath>
#include <cstdint>
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

using ncnas::tensor::GemmPath;
using ncnas::tensor::KernelConfig;
using ncnas::tensor::KernelConfigGuard;
using ncnas::tensor::Rng;
using ncnas::tensor::Tensor;

std::size_t hardware_threads() {
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

/// The thread counts the suite sweeps, per the issue: 1, 2, hardware.
std::vector<std::size_t> thread_counts() { return {1, 2, hardware_threads()}; }

KernelConfig test_config(std::size_t threads) {
  KernelConfig cfg;
  cfg.threads = threads;
  cfg.block_rows = 8;    // small enough that every sweep shape spans blocks
  cfg.block_cols = 32;   // two packed panels per cache pass
  cfg.min_blocked_flops = 0;    // force the blocked path even for 1x1x1
  cfg.min_parallel_elems = 0;   // force pool dispatch for tiny elementwise ops
  return cfg;
}

/// Every gemm on the reference kernels: the oracle configuration.
KernelConfig reference_config() {
  KernelConfig cfg;
  cfg.min_blocked_flops = SIZE_MAX;
  return cfg;
}

/// The reference tier, then the blocked tier serially and on the pool.
std::vector<KernelConfig> tier_configs() {
  return {reference_config(), test_config(1), test_config(hardware_threads())};
}

Tensor random_tensor(const ncnas::tensor::Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Shapes stressing every dispatch edge: empty dims, unit dims, exact
/// block/panel multiples, off-by-one around panel (16) and block (8/32)
/// boundaries, tall/thin and short/wide extremes.
struct GemmShape {
  std::size_t m, k, n;
};

std::vector<GemmShape> sweep_shapes() {
  return {
      {0, 0, 0}, {0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1},  {1, 7, 1},
      {1, 1, 9}, {5, 1, 5}, {4, 4, 4}, {8, 8, 16}, {8, 8, 32}, {16, 16, 16},
      {7, 5, 3}, {9, 11, 17}, {15, 13, 31}, {17, 9, 33}, {23, 29, 19},
      {33, 7, 65}, {1, 64, 96}, {96, 64, 1}, {2, 128, 2}, {64, 3, 64},
  };
}

class KernelDiff : public ::testing::Test {
 protected:
  Rng rng_{0xC0FFEEULL};
};

// --- blocked vs reference, exact ------------------------------------------

TEST_F(KernelDiff, GemmMatchesReferenceBitwiseAcrossShapesAndThreads) {
  for (const GemmShape& s : sweep_shapes()) {
    const Tensor a = random_tensor({s.m, s.k}, rng_);
    const Tensor b = random_tensor({s.k, s.n}, rng_);
    Tensor want({s.m, s.n});
    ncnas::tensor::gemm_ref(a, b, want);
    for (std::size_t t : thread_counts()) {
      KernelConfigGuard guard(test_config(t));
      Tensor got({s.m, s.n});
      // Poison the output first: the blocked kernel must fully overwrite C.
      for (float& v : got.flat()) v = -123.75f;
      ncnas::tensor::gemm(a, b, got);
      EXPECT_TRUE(bytes_equal(want, got))
          << "gemm " << s.m << "x" << s.k << "x" << s.n << " threads=" << t
          << " max|diff|=" << ncnas::tensor::max_abs_diff(want, got);
    }
  }
}

TEST_F(KernelDiff, GemmNtMatchesReferenceBitwiseAcrossShapesAndThreads) {
  for (const GemmShape& s : sweep_shapes()) {
    const Tensor a = random_tensor({s.m, s.k}, rng_);
    const Tensor b = random_tensor({s.n, s.k}, rng_);
    Tensor want({s.m, s.n});
    ncnas::tensor::gemm_nt_ref(a, b, want);
    for (std::size_t t : thread_counts()) {
      KernelConfigGuard guard(test_config(t));
      Tensor got({s.m, s.n});
      for (float& v : got.flat()) v = -123.75f;
      ncnas::tensor::gemm_nt(a, b, got);
      EXPECT_TRUE(bytes_equal(want, got))
          << "gemm_nt " << s.m << "x" << s.k << "x" << s.n << " threads=" << t
          << " max|diff|=" << ncnas::tensor::max_abs_diff(want, got);
    }
  }
}

TEST_F(KernelDiff, GemmTnMatchesReferenceBitwiseAcrossShapesAndThreads) {
  for (const GemmShape& s : sweep_shapes()) {
    const Tensor a = random_tensor({s.k, s.m}, rng_);
    const Tensor b = random_tensor({s.k, s.n}, rng_);
    Tensor want({s.m, s.n});
    ncnas::tensor::gemm_tn_ref(a, b, want);
    for (std::size_t t : thread_counts()) {
      KernelConfigGuard guard(test_config(t));
      Tensor got({s.m, s.n});
      for (float& v : got.flat()) v = -123.75f;
      ncnas::tensor::gemm_tn(a, b, got);
      EXPECT_TRUE(bytes_equal(want, got))
          << "gemm_tn " << s.m << "x" << s.k << "x" << s.n << " threads=" << t
          << " max|diff|=" << ncnas::tensor::max_abs_diff(want, got);
    }
  }
}

TEST_F(KernelDiff, BlockGeometryNeverChangesBits) {
  const Tensor a = random_tensor({37, 23}, rng_);
  const Tensor b = random_tensor({23, 41}, rng_);
  Tensor want({37, 41});
  ncnas::tensor::gemm_ref(a, b, want);
  for (std::size_t br : {1UL, 3UL, 8UL, 64UL, 256UL}) {
    for (std::size_t bc : {1UL, 16UL, 48UL, 256UL}) {
      KernelConfig cfg = test_config(hardware_threads());
      cfg.block_rows = br;
      cfg.block_cols = bc;
      KernelConfigGuard guard(cfg);
      Tensor got({37, 41});
      ncnas::tensor::gemm(a, b, got);
      EXPECT_TRUE(bytes_equal(want, got)) << "block_rows=" << br << " block_cols=" << bc;
    }
  }
}

// --- determinism across thread counts -------------------------------------

TEST_F(KernelDiff, ThreadCountNeverChangesBits) {
  const Tensor a = random_tensor({31, 47}, rng_);
  const Tensor b = random_tensor({47, 29}, rng_);
  Tensor base({31, 29});
  {
    KernelConfigGuard guard(test_config(1));
    ncnas::tensor::gemm(a, b, base);
  }
  for (std::size_t t : {2UL, 3UL, 5UL, hardware_threads()}) {
    KernelConfigGuard guard(test_config(t));
    Tensor got({31, 29});
    ncnas::tensor::gemm(a, b, got);
    EXPECT_TRUE(bytes_equal(base, got)) << "threads=" << t;
  }
}

TEST_F(KernelDiff, RepeatedRunsAreIdenticalUnderPool) {
  // Dynamic task scheduling must not leak into results: hammer the same
  // product repeatedly on the pool and require one unique answer.
  const Tensor a = random_tensor({26, 33}, rng_);
  const Tensor b = random_tensor({33, 50}, rng_);
  KernelConfigGuard guard(test_config(hardware_threads()));
  Tensor first({26, 50});
  ncnas::tensor::gemm(a, b, first);
  for (int run = 0; run < 20; ++run) {
    Tensor again({26, 50});
    ncnas::tensor::gemm(a, b, again);
    ASSERT_TRUE(bytes_equal(first, again)) << "run " << run;
  }
}

// --- inputs unchanged (no in-place scribbling) ----------------------------

TEST_F(KernelDiff, InputsAreNotModified) {
  const Tensor a = random_tensor({19, 21}, rng_);
  const Tensor b = random_tensor({21, 35}, rng_);
  const Tensor a_copy = a;
  const Tensor b_copy = b;
  KernelConfigGuard guard(test_config(hardware_threads()));
  Tensor c({19, 35});
  ncnas::tensor::gemm(a, b, c);
  EXPECT_TRUE(bytes_equal(a, a_copy));
  EXPECT_TRUE(bytes_equal(b, b_copy));
}

// --- NaN/Inf semantics (the removed zero-skip fast path) ------------------

TEST_F(KernelDiff, ZeroTimesNanPropagatesNan) {
  // A has an explicit 0.0 in the slot that multiplies B's NaN. The old
  // `if (aik == 0.0f) continue;` fast path skipped the product and produced
  // a finite (wrong) result; IEEE 754 says 0 * NaN = NaN must reach C.
  Tensor a({2, 3});
  a(0, 0) = 1.0f; a(0, 1) = 0.0f; a(0, 2) = 2.0f;
  a(1, 0) = 0.0f; a(1, 1) = 4.0f; a(1, 2) = 0.5f;
  Tensor b({3, 2});
  for (float& v : b.flat()) v = 1.0f;
  b(1, 0) = std::numeric_limits<float>::quiet_NaN();
  for (const KernelConfig& cfg : tier_configs()) {
    KernelConfigGuard guard(cfg);
    SCOPED_TRACE(::testing::Message() << "threads=" << cfg.threads
                                      << " min_blocked_flops=" << cfg.min_blocked_flops);
    Tensor c({2, 2});
    ncnas::tensor::gemm(a, b, c);
    EXPECT_TRUE(std::isnan(c(0, 0)));  // 0 * NaN in play
    EXPECT_TRUE(std::isnan(c(1, 0)));  // 4 * NaN in play
    EXPECT_FLOAT_EQ(c(0, 1), 3.0f);    // NaN column only
    EXPECT_FLOAT_EQ(c(1, 1), 4.5f);
  }
}

TEST_F(KernelDiff, ZeroTimesInfPropagatesNan) {
  Tensor a({1, 2});
  a(0, 0) = 0.0f;
  a(0, 1) = 1.0f;
  Tensor b({2, 1});
  b(0, 0) = std::numeric_limits<float>::infinity();
  b(1, 0) = 7.0f;
  for (const KernelConfig& cfg : tier_configs()) {
    KernelConfigGuard guard(cfg);
    SCOPED_TRACE(::testing::Message() << "threads=" << cfg.threads
                                      << " min_blocked_flops=" << cfg.min_blocked_flops);
    Tensor c({1, 1});
    ncnas::tensor::gemm(a, b, c);
    EXPECT_TRUE(std::isnan(c(0, 0)));  // 0 * inf = NaN
  }
}

TEST_F(KernelDiff, GemmTnZeroTimesNanPropagatesNan) {
  // Same pinning for gemm_tn, which carried its own `aki == 0.0f` skip.
  Tensor a({2, 1});  // A^T is 1x2
  a(0, 0) = 0.0f;
  a(1, 0) = 1.0f;
  Tensor b({2, 1});
  b(0, 0) = std::numeric_limits<float>::quiet_NaN();
  b(1, 0) = 2.0f;
  for (const KernelConfig& cfg : tier_configs()) {
    KernelConfigGuard guard(cfg);
    SCOPED_TRACE(::testing::Message() << "threads=" << cfg.threads
                                      << " min_blocked_flops=" << cfg.min_blocked_flops);
    Tensor c({1, 1});
    ncnas::tensor::gemm_tn(a, b, c);
    EXPECT_TRUE(std::isnan(c(0, 0)));
  }
}

// --- elementwise helpers ---------------------------------------------------

TEST_F(KernelDiff, ElementwiseOpsMatchSerialBitwise) {
  // Large enough to span many parallel_elems grains.
  const std::size_t n = 100'003;
  const Tensor x = random_tensor({n}, rng_);
  const Tensor y0 = random_tensor({n}, rng_);

  Tensor want_axpy = y0;
  ncnas::tensor::axpy(0.37f, x, want_axpy);  // default config: serial
  Tensor want_scale = y0;
  ncnas::tensor::scale_inplace(want_scale, -1.72f);

  for (std::size_t t : thread_counts()) {
    KernelConfigGuard guard(test_config(t));
    Tensor got_axpy = y0;
    ncnas::tensor::axpy(0.37f, x, got_axpy);
    EXPECT_TRUE(bytes_equal(want_axpy, got_axpy)) << "axpy threads=" << t;
    Tensor got_scale = y0;
    ncnas::tensor::scale_inplace(got_scale, -1.72f);
    EXPECT_TRUE(bytes_equal(want_scale, got_scale)) << "scale threads=" << t;
  }
}

TEST_F(KernelDiff, RowwiseOpsMatchSerialBitwise) {
  const std::size_t m = 513, n = 259;
  const Tensor g = random_tensor({m, n}, rng_);
  const Tensor bias = random_tensor({n}, rng_);
  const Tensor y0 = random_tensor({m, n}, rng_);
  const Tensor colsum0 = random_tensor({n}, rng_);

  Tensor want_bias = y0;
  ncnas::tensor::add_row_bias(want_bias, bias);
  Tensor want_colsum = colsum0;
  ncnas::tensor::accumulate_col_sums(g, want_colsum);

  for (std::size_t t : thread_counts()) {
    KernelConfigGuard guard(test_config(t));
    Tensor got_bias = y0;
    ncnas::tensor::add_row_bias(got_bias, bias);
    EXPECT_TRUE(bytes_equal(want_bias, got_bias)) << "add_row_bias threads=" << t;
    Tensor got_colsum = colsum0;
    ncnas::tensor::accumulate_col_sums(g, got_colsum);
    EXPECT_TRUE(bytes_equal(want_colsum, got_colsum)) << "accumulate_col_sums threads=" << t;
  }
}

TEST_F(KernelDiff, ParallelElemsCoversEveryIndexOnce) {
  KernelConfigGuard guard(test_config(hardware_threads()));
  const std::size_t n = 70'000;  // > 4 grains
  std::vector<int> hits(n, 0);
  ncnas::tensor::parallel_elems(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

// --- dispatch & validation -------------------------------------------------

TEST_F(KernelDiff, TinyProblemsFallBackToReferenceBelowThreshold) {
  KernelConfig cfg = KernelConfig::parallel();  // default thresholds
  KernelConfigGuard guard(cfg);
  // 2x2x2 is far below min_blocked_flops; both paths are bit-identical
  // anyway, so just sanity-check the result.
  Tensor a({2, 2});
  a(0, 0) = 1.0f; a(0, 1) = 2.0f; a(1, 0) = 3.0f; a(1, 1) = 4.0f;
  Tensor c({2, 2});
  ncnas::tensor::gemm(a, a, c);
  EXPECT_FLOAT_EQ(c(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 22.0f);
}

TEST_F(KernelDiff, ShapeValidationStillThrowsInBlockedMode) {
  KernelConfigGuard guard(test_config(hardware_threads()));
  Tensor a({2, 3});
  Tensor b({4, 5});  // inner mismatch
  Tensor c({2, 5});
  EXPECT_THROW(ncnas::tensor::gemm(a, b, c), std::invalid_argument);
  EXPECT_THROW(ncnas::tensor::gemm_nt(a, b, c), std::invalid_argument);
  Tensor bad_c({3, 5});
  Tensor ok_b({3, 5});
  EXPECT_THROW(ncnas::tensor::gemm(a, ok_b, bad_c), std::invalid_argument);
}

TEST_F(KernelDiff, ReferenceBlockedCrossoverPinned) {
  // Pins the small-size cutoff that fixed the gemm_nt regression: below
  // min_blocked_flops every gemm variant takes the reference path outright
  // (no blocking/packing overhead), at or above it the blocked tier runs.
  KernelConfig cfg = KernelConfig::parallel(1);
  cfg.min_blocked_flops = 1000;
  KernelConfigGuard guard(cfg);
  using ncnas::tensor::planned_gemm_path;
  EXPECT_EQ(planned_gemm_path(9, 9, 9), GemmPath::kReference);     // 729 < 1000
  EXPECT_EQ(planned_gemm_path(10, 10, 10), GemmPath::kBlocked);    // exactly 1000
  EXPECT_EQ(planned_gemm_path(16, 16, 16), GemmPath::kBlocked);
  {
    // The default config runs the blocked tier on anything past the
    // threshold and keeps genuinely tiny products on the reference path.
    KernelConfigGuard defaults{KernelConfig{}};
    EXPECT_EQ(planned_gemm_path(64, 64, 64), GemmPath::kBlocked);
    EXPECT_EQ(planned_gemm_path(8, 8, 8), GemmPath::kReference);
  }
  // The same threshold holds in fully parallel configs.
  KernelConfigGuard defaults{KernelConfig::parallel()};
  EXPECT_EQ(planned_gemm_path(8, 8, 8), GemmPath::kReference);
  EXPECT_EQ(planned_gemm_path(64, 64, 64), GemmPath::kBlocked);
}

TEST_F(KernelDiff, GemmTierDependsOnlyOnSizeThreshold) {
  // There are two tiers, reference and blocked, and the choice between them
  // is made by min_blocked_flops alone: the thread count only decides
  // whether the blocked tier is pooled, never which tier runs.
  using ncnas::tensor::planned_gemm_path;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    KernelConfig cfg;
    cfg.threads = threads;
    KernelConfigGuard guard(cfg);
    EXPECT_EQ(planned_gemm_path(64, 64, 64), GemmPath::kBlocked) << threads;
    EXPECT_EQ(planned_gemm_path(8, 8, 8), GemmPath::kReference) << threads;
  }
  // SIZE_MAX is the reference-only oracle configuration.
  KernelConfigGuard reference{reference_config()};
  EXPECT_EQ(planned_gemm_path(512, 512, 512), GemmPath::kReference);
  // The ISA label is informational only: it names the build, not a tier.
  const std::string isa = KernelConfig::simd_isa();
  EXPECT_TRUE(isa.empty() || isa == "avx2" || isa == "neon") << isa;
}

TEST_F(KernelDiff, NanPropagationMatchesReference) {
  // NaN/Inf travel through the blocked micro-kernels exactly as through the
  // reference loops — including values that only touch a full-width panel
  // vs only the edge panel of the same product.
  const std::size_t m = 9, k = 13, n = 47;  // 47 = one full panel + edge 15
  Tensor a = random_tensor({m, k}, rng_);
  Tensor b = random_tensor({k, n}, rng_);
  a(3, 5) = std::numeric_limits<float>::quiet_NaN();
  b(7, 2) = std::numeric_limits<float>::infinity();   // full-panel column
  b(2, 40) = -std::numeric_limits<float>::infinity();  // edge column
  Tensor want({m, n});
  ncnas::tensor::gemm_ref(a, b, want);
  for (std::size_t t : thread_counts()) {
    KernelConfigGuard guard(test_config(t));
    Tensor got({m, n});
    ncnas::tensor::gemm(a, b, got);
    EXPECT_TRUE(bytes_equal(want, got)) << "threads=" << t;
  }
}

TEST_F(KernelDiff, SetKernelConfigRejectsZeroBlocks) {
  KernelConfig cfg;
  cfg.threads = 0;
  EXPECT_THROW(ncnas::tensor::set_kernel_config(cfg), std::invalid_argument);
  cfg = KernelConfig{};
  cfg.block_rows = 0;
  EXPECT_THROW(ncnas::tensor::set_kernel_config(cfg), std::invalid_argument);
  cfg = KernelConfig{};
  cfg.block_cols = 0;
  EXPECT_THROW(ncnas::tensor::set_kernel_config(cfg), std::invalid_argument);
}

TEST_F(KernelDiff, GuardRestoresPreviousConfig) {
  const KernelConfig before = ncnas::tensor::kernel_config();
  {
    KernelConfigGuard guard(test_config(3));
    EXPECT_EQ(ncnas::tensor::kernel_config().threads, 3u);
  }
  const KernelConfig after = ncnas::tensor::kernel_config();
  EXPECT_EQ(after.threads, before.threads);
  EXPECT_EQ(after.block_rows, before.block_rows);
}

}  // namespace
