// Seeded randomized differential fuzz harness for the kernel tiers.
//
// Every iteration draws a random problem (shape, construction path, special
// values, aliasing), then requires the result to be byte-for-byte identical
// to the serial reference: the reference kernels for the gemms, plain loops
// over every index for the elementwise and row-wise ops, and the oracle
// Conv1D layer's direct loops (graph_oracle.hpp) for the convolution. The
// gemm draws mostly clear KernelConfig::min_blocked_flops, so they fuzz the
// blocked tier at the geometry the library ships, across its 64-row and
// 256-column blocks and every n % 32 residue; the rest fuzz the reference
// tier and the crossover.
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
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz_seed.hpp"
#include "graph_oracle.hpp"
#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/tensor.hpp"

namespace {

using ncnas::tensor::KernelConfig;
using ncnas::tensor::GemmPath;
using ncnas::tensor::Rng;
using ncnas::tensor::Tensor;

std::uint64_t g_seed = 0xF0221DBeefULL;
constexpr int kIters = 1000;

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// bytes_equal, except that a NaN matches a NaN of either sign or payload.
/// IEEE 754 leaves open which NaN an add of two NaNs returns, and x86 returns
/// one operand's by instruction operand order, which the compiler picks:
/// where a +NaN input and a -NaN made by Inf - Inf or 0 * Inf meet,
/// accumulate_gemm_tn_steps's g += term and add_inplace's fused axpy keep
/// different ones. Every other element must match to the bit.
bool bytes_equal_any_nan(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool nan_a = std::isnan(a[i]), nan_b = std::isnan(b[i]);
    if (nan_a != nan_b) return false;
    if (!nan_a && std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) return false;
  }
  return true;
}

struct GemmDims {
  std::size_t m = 0, k = 0, n = 0;
};

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

  /// A gemm's dims: rows from dim() plus the row blocks' edges, columns as
  /// a whole number of 32-wide panels (0-9, so up to past the 256-column
  /// block) plus a uniform residue, and a depth that nine draws in ten lift
  /// to the blocked tier's threshold.
  GemmDims gemm_dims() {
    GemmDims d;
    d.m = rng_.uniform() < 0.1 ? 127 + rng_.uniform_int(4) : dim();
    d.n = rng_.uniform() < 0.02 ? 0 : 32 * rng_.uniform_int(10) + rng_.uniform_int(32);
    d.k = dim();
    if (d.m != 0 && d.n != 0 && rng_.uniform() < 0.9) {
      const std::size_t depth = (KernelConfig::min_blocked_flops + d.m * d.n - 1) / (d.m * d.n);
      d.k = std::max(d.k, depth);
    }
    return d;
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
/// points under test and the oracle. At least 80 % of the draws must run
/// blocked, among them rows past the row block, columns past the column
/// block and every n % 32 residue.
void fuzz_gemm(std::uint64_t salt, const char* name,
               std::vector<std::size_t> (*shape_a)(std::size_t, std::size_t, std::size_t),
               std::vector<std::size_t> (*shape_b)(std::size_t, std::size_t, std::size_t),
               void (*op)(const Tensor&, const Tensor&, Tensor&),
               void (*op_ref)(const Tensor&, const Tensor&, Tensor&)) {
  Fuzz fz(salt);
  int blocked = 0;
  bool rows_past_block = false, cols_past_block = false;
  std::vector<bool> residues(32, false);
  for (int it = 0; it < kIters; ++it) {
    const auto [m, k, n] = fz.gemm_dims();
    const bool on_blocked = ncnas::tensor::planned_gemm_path(m, k, n) == GemmPath::kBlocked;
    if (on_blocked) {
      ++blocked;
      rows_past_block = rows_past_block || m > KernelConfig::block_rows;
      cols_past_block = cols_past_block || n > KernelConfig::block_cols;
      residues[n % 32] = true;
    }
    const Tensor a = fz.tensor(shape_a(m, k, n));
    const Tensor b = fz.tensor(shape_b(m, k, n));
    Tensor want({m, n});
    op_ref(a, b, want);
    Tensor got({m, n});
    fz.poison(got);
    op(a, b, got);
    ASSERT_TRUE(bytes_equal(want, got))
        << name << " iter=" << it << " " << m << "x" << k << "x" << n
        << (on_blocked ? " blocked" : " reference") << " (replay with --seed=" << g_seed << ")";
  }
  const std::string replay =
      std::string(name) + " (replay with --seed=" + std::to_string(g_seed) + ")";
  EXPECT_GE(blocked, kIters * 8 / 10) << replay;
  EXPECT_TRUE(rows_past_block) << replay;
  EXPECT_TRUE(cols_past_block) << replay;
  for (std::size_t r = 0; r < residues.size(); ++r) {
    EXPECT_TRUE(residues[r]) << "n % 32 = " << r << " " << replay;
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

// The controller's raw-buffer kernels have no tier and no configuration:
// gemm_rows must give gemm_ref's bytes, written over a poisoned output.
TEST(KernelFuzz, GemmRowsBitwiseVsReference) {
  Fuzz fz(0x676D7277);
  for (int it = 0; it < kIters; ++it) {
    const std::size_t m = fz.dim(), k = fz.dim(), n = fz.dim();
    const Tensor a = fz.tensor({m, k});
    const Tensor b = fz.tensor({k, n});
    Tensor want({m, n});
    ncnas::tensor::gemm_ref(a, b, want);
    Tensor got({m, n});
    fz.poison(got);
    ncnas::tensor::gemm_rows(a.data(), b.data(), got.data(), m, k, n);
    ASSERT_TRUE(bytes_equal(want, got))
        << "gemm_rows iter=" << it << " " << m << "x" << k << "x" << n
        << " (replay with --seed=" << g_seed << ")";
  }
}

// accumulate_gemm_tn_steps from a random g must give the bytes of one
// gemm_tn_ref into scratch plus add_inplace per step, steps descending, up
// to the sign of a NaN (see bytes_equal_any_nan).
TEST(KernelFuzz, AccumulateGemmTnStepsBitwiseVsPerStepReference) {
  Fuzz fz(0x61677473);
  for (int it = 0; it < kIters; ++it) {
    const std::size_t m = fz.dim(), k = fz.dim(), n = fz.dim();
    const std::size_t steps = 1 + fz.uniform_int(12);
    // Step s reads a_s(k, m) and b_s(k, n), stored back to back.
    const Tensor a = fz.tensor({steps * k, m});
    const Tensor b = fz.tensor({steps * k, n});
    const Tensor g0 = fz.tensor({m, n});
    Tensor want = g0;
    for (std::size_t s = steps; s-- > 0;) {
      const Tensor as({k, m}, std::vector<float>(a.data() + s * k * m, a.data() + (s + 1) * k * m));
      const Tensor bs({k, n}, std::vector<float>(b.data() + s * k * n, b.data() + (s + 1) * k * n));
      Tensor term({m, n});
      ncnas::tensor::gemm_tn_ref(as, bs, term);
      ncnas::tensor::add_inplace(want, term);
    }
    Tensor got = g0;
    ncnas::tensor::accumulate_gemm_tn_steps(a.data(), b.data(), got.data(), steps, k, m, n);
    ASSERT_TRUE(bytes_equal_any_nan(want, got))
        << "accumulate_gemm_tn_steps iter=" << it << " steps=" << steps << " " << m << "x" << k
        << "x" << n << " (replay with --seed=" << g_seed << ")";
  }
}

// conv1d over a poisoned output and two conv1d_dw calls into a random
// gradient must give the oracle layer's forward and backward bytes. The
// conv has no tier and no configuration.
TEST(KernelFuzz, ConvBitwiseVsOracleLoops) {
  Fuzz fz(0x636F6E76);
  for (int it = 0; it < kIters; ++it) {
    const std::size_t batch = fz.uniform_int(5), cin = 1 + fz.uniform_int(9);
    const std::size_t kernel = 1 + fz.uniform_int(8);
    const std::size_t len = kernel + fz.uniform_int(40), out_len = len - kernel + 1;
    const std::size_t filters = std::max<std::size_t>(1, fz.dim());
    const Tensor x = fz.tensor({batch, len, cin});
    const Tensor w = fz.tensor({kernel * cin, filters});
    const Tensor bias = fz.tensor({filters});
    Tensor y({batch, out_len, filters});
    fz.poison(y);
    ncnas::tensor::conv1d(x, w, bias, y);
    const std::vector<Tensor> grads = {fz.tensor({batch, out_len, filters}),
                                       fz.tensor({batch, out_len, filters})};
    const Tensor dw0 = fz.tensor({kernel * cin, filters});
    Tensor dw = dw0;
    for (const Tensor& g : grads) ncnas::tensor::conv1d_dw(x, g, dw);
    ASSERT_TRUE(bytes_equal(ncnas::oracle::conv1d_forward(x, w, bias), y) &&
                bytes_equal(ncnas::oracle::conv1d_dw(x, grads, dw0), dw))
        << "conv iter=" << it << " batch=" << batch << " len=" << len << " cin=" << cin
        << " kernel=" << kernel << " filters=" << filters << " (replay with --seed=" << g_seed
        << ")";
  }
}

TEST(KernelFuzz, AxpyScaleAllTiersBitwiseVsReference) {
  Fuzz fz(0x61787079);
  for (int it = 0; it < kIters; ++it) {
    // Sizes span from empty to 200k elements.
    const std::size_t n = it % 7 == 0 ? fz.uniform_int(200'000) : fz.dim() * (1 + fz.dim());
    const Tensor x = fz.tensor({n});
    const Tensor y0 = fz.tensor({n});
    const float alpha = static_cast<float>(fz.uniform() * 4.0 - 2.0);
    const bool alias = fz.uniform() < 0.15;  // y += alpha * y: legal, per-element

    Tensor want = y0;
    const Tensor& src = alias ? want : x;
    for (std::size_t i = 0; i < n; ++i) want[i] += alpha * src[i];
    for (std::size_t i = 0; i < n; ++i) want[i] *= alpha;
    Tensor got = y0;
    ncnas::tensor::axpy(alpha, alias ? got : x, got);
    ncnas::tensor::scale_inplace(got, alpha);
    ASSERT_TRUE(bytes_equal(want, got))
        << "axpy/scale iter=" << it << " n=" << n << " alias=" << alias
        << " (replay with --seed=" << g_seed << ")";
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

    // Row by row, each column sum accumulated in ascending row order.
    Tensor want_bias = y0;
    Tensor want_sums = sums0;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        want_bias(i, j) += bias[j];
        want_sums[j] += g(i, j);
      }
    }
    Tensor got_bias = y0;
    ncnas::tensor::add_row_bias(got_bias, bias);
    Tensor got_sums = sums0;
    ncnas::tensor::accumulate_col_sums(g, got_sums);
    ASSERT_TRUE(bytes_equal(want_bias, got_bias) && bytes_equal(want_sums, got_sums))
        << "rowwise iter=" << it << " " << m << "x" << n
        << " (replay with --seed=" << g_seed << ")";
  }
}

}  // namespace

int main(int argc, char** argv) {
  return ncnas::testing::fuzz_main(argc, argv, "kernel_fuzz_test", &g_seed);
}
