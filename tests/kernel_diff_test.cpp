// Differential oracle suite for the blocked tensor kernels.
//
// The contract under test (tensor/kernel_config.hpp): blocked kernels —
// whichever thread calls them while other threads run kernels too — produce
// bytes identical to the serial reference kernels. The dispatching entry
// points pick the tier from the problem size, so the shapes below sit on
// both sides of KernelConfig::min_blocked_flops and, on the blocked side,
// across the fixed row block (64) and column block (256).
// Equality below is exact (EXPECT_EQ on floats / Tensor::operator== which is
// bitwise), never approximate: a one-ULP drift is a determinism bug, not
// noise.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph_oracle.hpp"
#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/tensor.hpp"
#include "ncnas/tensor/thread_pool.hpp"

namespace {

using ncnas::tensor::GemmPath;
using ncnas::tensor::KernelConfig;
using ncnas::tensor::planned_gemm_path;
using ncnas::tensor::Rng;
using ncnas::tensor::Tensor;
using ncnas::tensor::ThreadPool;

std::size_t hardware_threads() {
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
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

/// Runs fn(i) for i in [0, n) as tasks on a fresh ThreadPool of `workers`
/// threads, the way the search driver runs trainings: every call on a
/// worker thread, up to `workers` of them at once. Returns once all ran.
template <class Fn>
void on_pool_workers(std::size_t workers, std::size_t n, const Fn& fn) {
  ThreadPool pool(workers);
  std::vector<std::future<void>> done;
  done.reserve(n);
  for (std::size_t i = 0; i < n; ++i) done.push_back(pool.submit([&fn, i] { fn(i); }));
  for (std::future<void>& f : done) f.get();
}

/// Shapes stressing every dispatch edge: empty dims, unit dims, exact
/// panel multiples, off-by-one around the panel (32) and strip (16, 8)
/// boundaries, tall/thin and short/wide extremes. Then the
/// shapes Combo's Dense layers run (batch 256; widths 16, 48, 96 and a
/// 144-wide concat): m = 256 rows over k, n in {16, 48, 96, 144} for the
/// forward and input-gradient gemms, and k = 256 for the weight gradient's
/// gemm_tn (m = input width, n = units); NT3's (batch 20, a 488-wide
/// flattened convolution, 24 units) likewise. Then 16-wide tails whose row
/// count is not a multiple of the 4-row step (a tail step whose bits
/// drifted on 16-wide tails passed every other hand-picked shape and failed
/// these). Then the controller's shapes (batch
/// and batch*steps rows over the embedding, hidden, gate and arity widths),
/// and a dense grid of small shapes: every width from 1 to 70 crosses each
/// tile and strip width (32, 16, 8, 1-7) and edge, at row counts on and off
/// the 4-row step, where a kernel left to the compiler's contraction was
/// seen to drift. Most of these run below min_blocked_flops;
/// dispatch_shapes() adds the ones the blocked tier runs.
struct GemmShape {
  std::size_t m, k, n;
};

/// The smallest depth at which an m x k x n gemm runs blocked.
std::size_t blocked_depth(std::size_t m, std::size_t n) {
  return (KernelConfig::min_blocked_flops + m * n - 1) / (m * n);
}

std::vector<GemmShape> sweep_shapes() {
  std::vector<GemmShape> shapes = {
      {0, 0, 0}, {0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1},  {1, 7, 1},
      {1, 1, 9}, {5, 1, 5}, {4, 4, 4}, {8, 8, 16}, {8, 8, 32}, {16, 16, 16},
      {7, 5, 3}, {9, 11, 17}, {15, 13, 31}, {17, 9, 33}, {23, 29, 19},
      {33, 7, 65}, {1, 64, 96}, {96, 64, 1}, {2, 128, 2}, {64, 3, 64},
      {18, 15, 48}, {33, 38, 16}, {258, 144, 48},
      {20, 488, 24}, {20, 24, 488}, {488, 20, 24},
      {1, 16, 128}, {4, 32, 128}, {16, 128, 32}, {192, 128, 16},
      {12, 32, 7}, {48, 7, 32}, {3, 32, 48}, {5, 33, 49},
  };
  for (const std::size_t k : {16u, 48u, 96u, 144u}) {
    for (const std::size_t n : {16u, 48u, 96u, 144u}) {
      shapes.push_back({256, k, n});
      shapes.push_back({k, 256, n});
    }
  }
  for (std::size_t m = 1; m <= 9; ++m) {
    for (const std::size_t k : {1u, 2u, 8u, 33u}) {
      for (std::size_t n = 1; n <= 70; ++n) shapes.push_back({m, k, n});
    }
  }
  return shapes;
}

/// sweep_shapes(), then the small grid again at the depth that lifts each
/// shape onto the blocked tier, which covers every n % 32 residue there;
/// rows 63-65 and 129 cross the 64-row block, and widths 255-257, 288 and
/// 513 the 256-column one. The dispatching gemms run these.
std::vector<GemmShape> dispatch_shapes() {
  std::vector<GemmShape> shapes = sweep_shapes();
  for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 63u, 64u, 65u, 129u}) {
    for (std::size_t n = 1; n <= 70; ++n) shapes.push_back({m, blocked_depth(m, n), n});
  }
  for (const std::size_t n : {255u, 256u, 257u, 288u, 513u}) {
    shapes.push_back({5, blocked_depth(5, n), n});
    shapes.push_back({65, 7, n});
  }
  shapes.push_back({130, 20, 300});
  return shapes;
}

/// What a sweep sent down the blocked tier: rows past one row block,
/// columns past one column block, and each n % 32 residue.
struct BlockedCoverage {
  std::size_t shapes = 0;
  bool rows_past_block = false;
  bool cols_past_block = false;
  std::vector<bool> residues = std::vector<bool>(32, false);

  void add(std::size_t m, std::size_t k, std::size_t n) {
    if (planned_gemm_path(m, k, n) != GemmPath::kBlocked) return;
    ++shapes;
    rows_past_block = rows_past_block || m > KernelConfig::block_rows;
    cols_past_block = cols_past_block || n > KernelConfig::block_cols;
    residues[n % 32] = true;
  }

  void expect_complete() const {
    EXPECT_GT(shapes, 0u);
    EXPECT_TRUE(rows_past_block);
    EXPECT_TRUE(cols_past_block);
    for (std::size_t r = 0; r < residues.size(); ++r) EXPECT_TRUE(residues[r]) << "n % 32 = " << r;
  }
};

class KernelDiff : public ::testing::Test {
 protected:
  Rng rng_{0xC0FFEEULL};
};

// --- blocked vs reference, exact ------------------------------------------

TEST_F(KernelDiff, GemmMatchesReferenceBitwiseAcrossShapesAndThreads) {
  BlockedCoverage coverage;
  for (const GemmShape& s : dispatch_shapes()) {
    const Tensor a = random_tensor({s.m, s.k}, rng_);
    const Tensor b = random_tensor({s.k, s.n}, rng_);
    Tensor want({s.m, s.n});
    ncnas::tensor::gemm_ref(a, b, want);
    // Poison the output first: the blocked kernel must fully overwrite C.
    Tensor got({s.m, s.n}, -123.75f);
    ncnas::tensor::gemm(a, b, got);
    EXPECT_TRUE(bytes_equal(want, got))
        << "gemm " << s.m << "x" << s.k << "x" << s.n
        << " max|diff|=" << ncnas::tensor::max_abs_diff(want, got);
    coverage.add(s.m, s.k, s.n);
  }
  coverage.expect_complete();
}

TEST_F(KernelDiff, GemmNtMatchesReferenceBitwiseAcrossShapesAndThreads) {
  BlockedCoverage coverage;
  for (const GemmShape& s : dispatch_shapes()) {
    const Tensor a = random_tensor({s.m, s.k}, rng_);
    const Tensor b = random_tensor({s.n, s.k}, rng_);
    Tensor want({s.m, s.n});
    ncnas::tensor::gemm_nt_ref(a, b, want);
    Tensor got({s.m, s.n}, -123.75f);
    ncnas::tensor::gemm_nt(a, b, got);
    EXPECT_TRUE(bytes_equal(want, got))
        << "gemm_nt " << s.m << "x" << s.k << "x" << s.n
        << " max|diff|=" << ncnas::tensor::max_abs_diff(want, got);
    coverage.add(s.m, s.k, s.n);
  }
  coverage.expect_complete();
}

TEST_F(KernelDiff, GemmTnMatchesReferenceBitwiseAcrossShapesAndThreads) {
  BlockedCoverage coverage;
  for (const GemmShape& s : dispatch_shapes()) {
    const Tensor a = random_tensor({s.k, s.m}, rng_);
    const Tensor b = random_tensor({s.k, s.n}, rng_);
    Tensor want({s.m, s.n});
    ncnas::tensor::gemm_tn_ref(a, b, want);
    Tensor got({s.m, s.n}, -123.75f);
    ncnas::tensor::gemm_tn(a, b, got);
    EXPECT_TRUE(bytes_equal(want, got))
        << "gemm_tn " << s.m << "x" << s.k << "x" << s.n
        << " max|diff|=" << ncnas::tensor::max_abs_diff(want, got);
    coverage.add(s.m, s.k, s.n);
  }
  coverage.expect_complete();
}

// --- few-row kernels on raw buffers vs the Tensor ops, exact ----------------

TEST_F(KernelDiff, GemmRowsMatchesReferenceBitwise) {
  for (const GemmShape& s : sweep_shapes()) {
    const Tensor a = random_tensor({s.m, s.k}, rng_);
    const Tensor b = random_tensor({s.k, s.n}, rng_);
    Tensor want({s.m, s.n});
    ncnas::tensor::gemm_ref(a, b, want);
    Tensor got({s.m, s.n}, -123.75f);
    ncnas::tensor::gemm_rows(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    EXPECT_TRUE(bytes_equal(want, got)) << "gemm_rows " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_F(KernelDiff, AccumulateGemmTnStepsMatchesPerStepReference) {
  for (const std::size_t steps : {1u, 3u, 12u}) {
    for (const GemmShape& s : sweep_shapes()) {
      // Step s reads a_s(k, m) and b_s(k, n), stored back to back.
      const Tensor a = random_tensor({steps * s.k, s.m}, rng_);
      const Tensor b = random_tensor({steps * s.k, s.n}, rng_);
      const Tensor g0 = random_tensor({s.m, s.n}, rng_);
      Tensor want = g0;
      for (std::size_t t = steps; t-- > 0;) {
        const Tensor at({s.k, s.m}, std::vector<float>(a.data() + t * s.k * s.m,
                                                       a.data() + (t + 1) * s.k * s.m));
        const Tensor bt({s.k, s.n}, std::vector<float>(b.data() + t * s.k * s.n,
                                                       b.data() + (t + 1) * s.k * s.n));
        Tensor term({s.m, s.n});
        ncnas::tensor::gemm_tn_ref(at, bt, term);
        ncnas::tensor::add_inplace(want, term);
      }
      Tensor got = g0;
      ncnas::tensor::accumulate_gemm_tn_steps(a.data(), b.data(), got.data(), steps, s.k, s.m,
                                              s.n);
      EXPECT_TRUE(bytes_equal(want, got))
          << "steps=" << steps << " " << s.m << "x" << s.k << "x" << s.n;
    }
  }
}

// --- concurrent callers ----------------------------------------------------

/// One set of operands for every kernel the layers call.
struct KernelInputs {
  Tensor a, b, bt, at, x, y, bias;
};

KernelInputs random_inputs(std::size_t m, std::size_t k, std::size_t n, Rng& rng) {
  return {random_tensor({m, k}, rng), random_tensor({k, n}, rng), random_tensor({n, k}, rng),
          random_tensor({k, m}, rng), random_tensor({m, n}, rng), random_tensor({m, n}, rng),
          random_tensor({n}, rng)};
}

/// The gemm variants' products, then the elementwise and row-wise ops.
std::vector<Tensor> run_kernels(const KernelInputs& in) {
  const std::size_t m = in.a.dim(0), n = in.b.dim(1);
  std::vector<Tensor> out(6, Tensor({m, n}));
  ncnas::tensor::gemm(in.a, in.b, out[0]);
  ncnas::tensor::gemm_nt(in.a, in.bt, out[1]);
  ncnas::tensor::gemm_tn(in.at, in.b, out[2]);
  out[3] = in.y;
  ncnas::tensor::axpy(0.37f, in.x, out[3]);
  ncnas::tensor::scale_inplace(out[3], -1.72f);
  out[4] = in.y;
  ncnas::tensor::add_row_bias(out[4], in.bias);
  out[5] = in.bias;
  ncnas::tensor::accumulate_col_sums(in.x, out[5]);
  return out;
}

TEST_F(KernelDiff, ThreadCountNeverChangesBits) {
  // Kernels run on their calling thread, and a search calls them from many
  // driver-pool workers at once, each packing into its own arena. Whichever
  // thread runs a kernel, and however many run kernels beside it, the bytes
  // are the calling thread's. Each task alternates two operand sets of
  // different sizes, so the workers' arenas grow and rewind while others
  // compute.
  const std::vector<KernelInputs> inputs = {random_inputs(31, 47, 29, rng_),
                                            random_inputs(70, 9, 45, rng_)};
  std::vector<std::vector<Tensor>> want;
  for (const KernelInputs& in : inputs) want.push_back(run_kernels(in));
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, hardware_threads()}) {
    // mismatches[task][kernel] over every round of that task.
    std::vector<std::vector<int>> mismatches(2 * workers, std::vector<int>(want[0].size(), 0));
    on_pool_workers(workers, mismatches.size(), [&](std::size_t task) {
      for (std::size_t round = 0; round < 8; ++round) {
        const std::size_t set = (task + round) % inputs.size();
        const std::vector<Tensor> got = run_kernels(inputs[set]);
        for (std::size_t op = 0; op < got.size(); ++op) {
          if (!bytes_equal(want[set][op], got[op])) ++mismatches[task][op];
        }
      }
    });
    for (std::size_t task = 0; task < mismatches.size(); ++task) {
      for (std::size_t op = 0; op < mismatches[task].size(); ++op) {
        EXPECT_EQ(mismatches[task][op], 0)
            << "workers=" << workers << " task " << task << " kernel " << op;
      }
    }
  }
}

TEST_F(KernelDiff, RepeatedRunsAreIdenticalUnderPool) {
  // Scheduling must not leak into results: hammer the same products from
  // every driver-pool worker at once and require one unique answer.
  const Tensor a = random_tensor({26, 33}, rng_);
  const Tensor b = random_tensor({33, 50}, rng_);
  const Tensor bt = random_tensor({50, 33}, rng_);
  Tensor first({26, 50}), first_nt({26, 50});
  ncnas::tensor::gemm(a, b, first);
  ncnas::tensor::gemm_nt(a, bt, first_nt);
  const std::size_t workers = hardware_threads();
  std::vector<int> mismatches(2 * workers, 0);
  on_pool_workers(workers, mismatches.size(), [&](std::size_t i) {
    for (int run = 0; run < 10; ++run) {
      Tensor again({26, 50}), again_nt({26, 50});
      ncnas::tensor::gemm(a, b, again);
      ncnas::tensor::gemm_nt(a, bt, again_nt);
      if (!bytes_equal(first, again) || !bytes_equal(first_nt, again_nt)) ++mismatches[i];
    }
  });
  for (std::size_t i = 0; i < mismatches.size(); ++i) {
    EXPECT_EQ(mismatches[i], 0) << "task " << i;
  }
}

// --- inputs unchanged (no in-place scribbling) ----------------------------

TEST_F(KernelDiff, InputsAreNotModified) {
  const Tensor a = random_tensor({70, 21}, rng_);
  const Tensor b = random_tensor({21, 35}, rng_);
  ASSERT_EQ(planned_gemm_path(70, 21, 35), GemmPath::kBlocked);
  const Tensor a_copy = a;
  const Tensor b_copy = b;
  Tensor c({70, 35});
  ncnas::tensor::gemm(a, b, c);
  EXPECT_TRUE(bytes_equal(a, a_copy));
  EXPECT_TRUE(bytes_equal(b, b_copy));
}

// --- NaN/Inf semantics (the removed zero-skip fast path) ------------------

/// A product's output dims on each tier: as given, below min_blocked_flops,
/// then with rows and columns padded past one row block and one column
/// block, which lifts it onto the blocked tier. Padding never touches the
/// contracted dimension, so the original elements keep their sums.
struct TierDims {
  std::size_t m, n;
  GemmPath path;
};

std::vector<TierDims> tier_dims(std::size_t m, std::size_t k, std::size_t n) {
  const std::vector<TierDims> dims = {
      {m, n, GemmPath::kReference},
      {KernelConfig::block_rows + 1, KernelConfig::block_cols + 1, GemmPath::kBlocked}};
  for (const TierDims& d : dims) EXPECT_EQ(planned_gemm_path(d.m, k, d.n), d.path);
  return dims;
}

/// `t` in the top-left corner of a rows x cols tensor of ones.
Tensor padded(const Tensor& t, std::size_t rows, std::size_t cols) {
  Tensor out({rows, cols}, 1.0f);
  for (std::size_t i = 0; i < t.dim(0); ++i) {
    for (std::size_t j = 0; j < t.dim(1); ++j) out(i, j) = t(i, j);
  }
  return out;
}

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
  for (const TierDims& d : tier_dims(2, 3, 2)) {
    SCOPED_TRACE(::testing::Message() << d.m << "x3x" << d.n);
    Tensor c({d.m, d.n});
    ncnas::tensor::gemm(padded(a, d.m, 3), padded(b, 3, d.n), c);
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
  for (const TierDims& d : tier_dims(1, 2, 1)) {
    SCOPED_TRACE(::testing::Message() << d.m << "x2x" << d.n);
    Tensor c({d.m, d.n});
    ncnas::tensor::gemm(padded(a, d.m, 2), padded(b, 2, d.n), c);
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
  for (const TierDims& d : tier_dims(1, 2, 1)) {
    SCOPED_TRACE(::testing::Message() << d.m << "x2x" << d.n);
    Tensor c({d.m, d.n});
    ncnas::tensor::gemm_tn(padded(a, 2, d.m), padded(b, 2, d.n), c);
    EXPECT_TRUE(std::isnan(c(0, 0)));
  }
}

TEST_F(KernelDiff, NanPropagationMatchesReference) {
  // NaN/Inf travel through the blocked micro-kernels exactly as through the
  // reference loops — including values that only touch a full-width panel
  // vs only the edge panel of the same product (47 = one full panel + an
  // edge of 15; 257 = eight full panels + an edge of 1).
  const std::size_t k = 13;
  for (const TierDims& d : tier_dims(9, k, 47)) {
    Tensor a = random_tensor({d.m, k}, rng_);
    Tensor b = random_tensor({k, d.n}, rng_);
    a(3, 5) = std::numeric_limits<float>::quiet_NaN();
    b(7, 2) = std::numeric_limits<float>::infinity();           // full-panel column
    b(2, d.n - 1) = -std::numeric_limits<float>::infinity();    // edge column
    Tensor want({d.m, d.n});
    ncnas::tensor::gemm_ref(a, b, want);
    Tensor got({d.m, d.n});
    ncnas::tensor::gemm(a, b, got);
    EXPECT_TRUE(bytes_equal(want, got)) << d.m << "x" << k << "x" << d.n;
  }
}

// --- elementwise helpers ---------------------------------------------------

TEST_F(KernelDiff, ElementwiseOpsMatchSerialBitwise) {
  // The library ops against plain loops over every index.
  const std::size_t n = 100'003;
  const Tensor x = random_tensor({n}, rng_);
  const Tensor y0 = random_tensor({n}, rng_);

  Tensor want_axpy = y0, want_scale = y0;
  for (std::size_t i = 0; i < n; ++i) {
    want_axpy[i] += 0.37f * x[i];
    want_scale[i] *= -1.72f;
  }
  Tensor got_axpy = y0;
  ncnas::tensor::axpy(0.37f, x, got_axpy);
  EXPECT_TRUE(bytes_equal(want_axpy, got_axpy)) << "axpy";
  Tensor got_scale = y0;
  ncnas::tensor::scale_inplace(got_scale, -1.72f);
  EXPECT_TRUE(bytes_equal(want_scale, got_scale)) << "scale_inplace";
}

TEST_F(KernelDiff, RowwiseOpsMatchSerialBitwise) {
  const std::size_t m = 513, n = 259;
  const Tensor g = random_tensor({m, n}, rng_);
  const Tensor bias = random_tensor({n}, rng_);
  const Tensor y0 = random_tensor({m, n}, rng_);
  const Tensor colsum0 = random_tensor({n}, rng_);

  // Row by row, each column sum accumulated in ascending row order.
  Tensor want_bias = y0, want_colsum = colsum0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      want_bias(i, j) += bias[j];
      want_colsum[j] += g(i, j);
    }
  }
  Tensor got_bias = y0;
  ncnas::tensor::add_row_bias(got_bias, bias);
  EXPECT_TRUE(bytes_equal(want_bias, got_bias)) << "add_row_bias";
  Tensor got_colsum = colsum0;
  ncnas::tensor::accumulate_col_sums(g, got_colsum);
  EXPECT_TRUE(bytes_equal(want_colsum, got_colsum)) << "accumulate_col_sums";
}

// --- dispatch & validation -------------------------------------------------

TEST_F(KernelDiff, TinyProblemsFallBackToReferenceBelowThreshold) {
  // 2x2x2 is far below min_blocked_flops; both paths are bit-identical
  // anyway, so just sanity-check the result.
  EXPECT_EQ(planned_gemm_path(2, 2, 2), GemmPath::kReference);
  Tensor a({2, 2});
  a(0, 0) = 1.0f; a(0, 1) = 2.0f; a(1, 0) = 3.0f; a(1, 1) = 4.0f;
  Tensor c({2, 2});
  ncnas::tensor::gemm(a, a, c);
  EXPECT_FLOAT_EQ(c(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 22.0f);
}

TEST_F(KernelDiff, ShapeValidationStillThrowsInBlockedMode) {
  // Shapes big enough for the blocked tier: validation runs before dispatch.
  Tensor a({64, 16});
  Tensor b({17, 64});  // inner mismatch
  Tensor c({64, 64});
  ASSERT_EQ(planned_gemm_path(64, 16, 64), GemmPath::kBlocked);
  EXPECT_THROW(ncnas::tensor::gemm(a, b, c), std::invalid_argument);
  EXPECT_THROW(ncnas::tensor::gemm_nt(a, b, c), std::invalid_argument);
  Tensor bad_c({65, 64});
  Tensor ok_b({16, 64});
  EXPECT_THROW(ncnas::tensor::gemm(a, ok_b, bad_c), std::invalid_argument);
}

TEST_F(KernelDiff, ReferenceBlockedCrossoverPinned) {
  // Pins the small-size cutoff that fixed the gemm_nt regression: below
  // min_blocked_flops = 16 Ki every gemm variant takes the reference path
  // outright (no blocking/packing overhead), at or above it the blocked
  // tier runs.
  static_assert(KernelConfig::min_blocked_flops == 16 * 1024);
  EXPECT_EQ(planned_gemm_path(3, 43, 127), GemmPath::kReference);  // 16383
  EXPECT_EQ(planned_gemm_path(16, 32, 31), GemmPath::kReference);  // 15872
  EXPECT_EQ(planned_gemm_path(16, 32, 32), GemmPath::kBlocked);    // exactly 16384
  EXPECT_EQ(planned_gemm_path(64, 64, 64), GemmPath::kBlocked);
  EXPECT_EQ(planned_gemm_path(8, 8, 8), GemmPath::kReference);
  EXPECT_EQ(planned_gemm_path(0, 512, 512), GemmPath::kReference);
}

TEST_F(KernelDiff, GemmTierDependsOnlyOnSizeThreshold) {
  // There are two tiers, reference and blocked, and the choice between them
  // is made by m*k*n alone: any order of the same three dims gets the same
  // tier.
  const GemmShape blocked = {16, 32, 32}, reference = {3, 43, 127};
  for (const GemmShape& s : {blocked, reference}) {
    const GemmPath want = planned_gemm_path(s.m, s.k, s.n);
    EXPECT_EQ(planned_gemm_path(s.m, s.n, s.k), want);
    EXPECT_EQ(planned_gemm_path(s.k, s.m, s.n), want);
    EXPECT_EQ(planned_gemm_path(s.k, s.n, s.m), want);
    EXPECT_EQ(planned_gemm_path(s.n, s.m, s.k), want);
    EXPECT_EQ(planned_gemm_path(s.n, s.k, s.m), want);
  }
  EXPECT_EQ(planned_gemm_path(1, 16384, 1), GemmPath::kBlocked);
  EXPECT_EQ(planned_gemm_path(1, 16383, 1), GemmPath::kReference);
  // The ISA label is informational only: it names the build, not a tier.
  const std::string isa = KernelConfig::simd_isa();
  EXPECT_TRUE(isa.empty() || isa == "avx2" || isa == "neon") << isa;
}

// --- conv1d / conv1d_dw vs the oracle layer's direct loops ----------------

/// NT3's convolutions (filters 8, one input channel or the eight of a
/// previous conv) and every strip width: 1-7, 8, 16, 17 = 16 + 1 and
/// 33 = 32 + 1 filters, over kernels 3-6 of a length-64 signal, at the
/// training batch and at one sample.
TEST_F(KernelDiff, ConvMatchesOracleLoopsBitwise) {
  for (const std::size_t batch : {32u, 1u}) {
    for (const std::size_t cin : {1u, 8u}) {
      for (std::size_t kernel = 3; kernel <= 6; ++kernel) {
        for (const std::size_t filters : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 16u, 17u, 33u}) {
          SCOPED_TRACE(::testing::Message() << "batch=" << batch << " cin=" << cin
                                            << " kernel=" << kernel << " filters=" << filters);
          constexpr std::size_t len = 64;
          const std::size_t out_len = len - kernel + 1;
          const Tensor x = random_tensor({batch, len, cin}, rng_);
          const Tensor w = random_tensor({kernel * cin, filters}, rng_);
          const Tensor bias = random_tensor({filters}, rng_);
          Tensor y({batch, out_len, filters}, -123.75f);
          ncnas::tensor::conv1d(x, w, bias, y);
          EXPECT_TRUE(bytes_equal(ncnas::oracle::conv1d_forward(x, w, bias), y));

          // Two backward passes into a gradient that already holds a value.
          const std::vector<Tensor> grads = {random_tensor({batch, out_len, filters}, rng_),
                                             random_tensor({batch, out_len, filters}, rng_)};
          const Tensor dw0 = random_tensor({kernel * cin, filters}, rng_);
          Tensor dw = dw0;
          for (const Tensor& g : grads) ncnas::tensor::conv1d_dw(x, g, dw);
          EXPECT_TRUE(bytes_equal(ncnas::oracle::conv1d_dw(x, grads, dw0), dw));
        }
      }
    }
  }
}

TEST_F(KernelDiff, ConvNanPropagationMatchesOracle) {
  // NaN and Inf in every operand, 0 * Inf included: the strip steps skip no
  // term, so every non-finite value lands where the direct loops put it.
  const std::size_t batch = 3, len = 12, cin = 2, kernel = 3, filters = 17;
  const std::size_t out_len = len - kernel + 1;
  Tensor x = random_tensor({batch, len, cin}, rng_);
  Tensor w = random_tensor({kernel * cin, filters}, rng_);
  Tensor bias = random_tensor({filters}, rng_);
  Tensor grad = random_tensor({batch, out_len, filters}, rng_);
  x(1, 4, 1) = std::numeric_limits<float>::quiet_NaN();
  x(2, 7, 0) = 0.0f;
  w(0, 16) = std::numeric_limits<float>::infinity();  // the 1-wide edge strip
  w(2 * cin, 3) = -std::numeric_limits<float>::infinity();
  bias[5] = std::numeric_limits<float>::quiet_NaN();
  grad(0, 2, 9) = std::numeric_limits<float>::infinity();
  Tensor y({batch, out_len, filters});
  ncnas::tensor::conv1d(x, w, bias, y);
  const Tensor want = ncnas::oracle::conv1d_forward(x, w, bias);
  EXPECT_TRUE(bytes_equal(want, y));
  EXPECT_TRUE(std::isnan(y(1, 4, 0)));   // the NaN input is in window 4 at offset 0
  EXPECT_TRUE(std::isnan(y(0, 0, 5)));   // the NaN bias reaches every row
  EXPECT_TRUE(std::isnan(y(2, 7, 16)));  // 0 * Inf
  Tensor dw({kernel * cin, filters}, 0.5f);
  const Tensor dw0 = dw;
  ncnas::tensor::conv1d_dw(x, grad, dw);
  EXPECT_TRUE(bytes_equal(ncnas::oracle::conv1d_dw(x, {grad}, dw0), dw));
  EXPECT_TRUE(std::isnan(dw(cin + 1, 0)));  // x(1, 4, 1) * grad(1, 3, 0)
}

TEST_F(KernelDiff, ConvShapeValidationThrows) {
  const Tensor x({2, 8, 3});
  Tensor y({2, 6, 4});
  EXPECT_THROW(ncnas::tensor::conv1d(Tensor({8, 3}), Tensor({9, 4}), Tensor({4}), y),
               std::invalid_argument);  // rank-2 input
  EXPECT_THROW(ncnas::tensor::conv1d(x, Tensor({8, 4}), Tensor({4}), y),
               std::invalid_argument);  // 8 weight rows are no whole window of 3 channels
  EXPECT_THROW(ncnas::tensor::conv1d(x, Tensor({27, 4}), Tensor({4}), y),
               std::invalid_argument);  // kernel 9 over length 8
  EXPECT_THROW(ncnas::tensor::conv1d(x, Tensor({9, 4}), Tensor({5}), y),
               std::invalid_argument);  // bias width
  Tensor y_short({2, 5, 4});
  EXPECT_THROW(ncnas::tensor::conv1d(x, Tensor({9, 4}), Tensor({4}), y_short),
               std::invalid_argument);
  Tensor dw({9, 4});
  EXPECT_THROW(ncnas::tensor::conv1d_dw(x, Tensor({2, 6, 5}), dw), std::invalid_argument);
  EXPECT_NO_THROW(ncnas::tensor::conv1d(x, Tensor({9, 4}), Tensor({4}), y));
  EXPECT_NO_THROW(ncnas::tensor::conv1d_dw(x, y, dw));
}

}  // namespace
