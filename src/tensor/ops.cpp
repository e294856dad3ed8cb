#include "ncnas/tensor/ops.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "ncnas/obs/profiler.hpp"
#include "ncnas/tensor/arena.hpp"
#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/thread_pool.hpp"

namespace ncnas::tensor {

namespace {

void require_rank2(const Tensor& t, const char* what) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(what) + ": expected rank-2 tensor, got shape " +
                                to_string(t.shape()));
  }
}

struct GemmDims {
  std::size_t m, k, n;
};

GemmDims check_gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  require_rank2(a, "gemm A");
  require_rank2(b, "gemm B");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("gemm: inner dims mismatch " + to_string(a.shape()) + " x " +
                                to_string(b.shape()));
  }
  c.require_shape({m, n}, "gemm C");
  return {m, k, n};
}

GemmDims check_gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  require_rank2(a, "gemm_nt A");
  require_rank2(b, "gemm_nt B");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) {
    throw std::invalid_argument("gemm_nt: inner dims mismatch " + to_string(a.shape()) + " x " +
                                to_string(b.shape()) + "^T");
  }
  c.require_shape({m, n}, "gemm_nt C");
  return {m, k, n};
}

GemmDims check_gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  require_rank2(a, "gemm_tn A");
  require_rank2(b, "gemm_tn B");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("gemm_tn: inner dims mismatch " + to_string(a.shape()) + "^T x " +
                                to_string(b.shape()));
  }
  c.require_shape({m, n}, "gemm_tn C");
  return {m, k, n};
}

// --- reference kernels ------------------------------------------------------
//
// The bit-exact oracles. Note there is deliberately no `if (value == 0.0f)
// continue;` fast path anywhere: skipping zero operands never changes finite
// results (0 * x + c == c exactly), but it swallows NaN/Inf in the other
// operand and makes FLOP counts data-dependent. Kernels compute every term.

void gemm_ref_impl(const float* pa, const float* pb, float* pc, const GemmDims& d) {
  // i-k-j loop order: streams through B and C rows, vectorizes on j. The
  // per-element accumulation order — k ascending into a zeroed C — is the
  // contract every blocked kernel reproduces exactly.
  for (std::size_t i = 0; i < d.m; ++i) {
    float* crow = pc + i * d.n;
    std::fill(crow, crow + d.n, 0.0f);
    const float* arow = pa + i * d.k;
    for (std::size_t kk = 0; kk < d.k; ++kk) {
      const float aik = arow[kk];
      const float* brow = pb + kk * d.n;
      for (std::size_t j = 0; j < d.n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void gemm_nt_ref_impl(const float* pa, const float* pb, float* pc, const GemmDims& d) {
  // Same i-k-j accumulate-through-memory structure as gemm_ref_impl, reading
  // B^T through its k-stride. This deliberately replaced an earlier
  // dot-product formulation (per-element scalar accumulator): the compiler
  // contracted that loop's reduction into a mix of partial FMA forms that no
  // explicit kernel could reproduce, whereas this form compiles to the same
  // clean per-element k-ascending FMA chain as the packed micro-kernels —
  // which is what lets gemm_nt share the transposed-B pack path bit-for-bit.
  for (std::size_t i = 0; i < d.m; ++i) {
    float* crow = pc + i * d.n;
    std::fill(crow, crow + d.n, 0.0f);
    const float* arow = pa + i * d.k;
    for (std::size_t kk = 0; kk < d.k; ++kk) {
      const float aik = arow[kk];
      for (std::size_t j = 0; j < d.n; ++j) crow[j] += aik * pb[j * d.k + kk];
    }
  }
}

void gemm_tn_ref_impl(const float* pa, const float* pb, float* pc, const GemmDims& d) {
  std::fill(pc, pc + d.m * d.n, 0.0f);
  for (std::size_t kk = 0; kk < d.k; ++kk) {
    const float* arow = pa + kk * d.m;
    const float* brow = pb + kk * d.n;
    for (std::size_t i = 0; i < d.m; ++i) {
      const float aki = arow[i];
      float* crow = pc + i * d.n;
      for (std::size_t j = 0; j < d.n; ++j) crow[j] += aki * brow[j];
    }
  }
}

// --- blocked kernels --------------------------------------------------------
//
// Layout: B is packed into k-major micro-panels of kPanelWidth columns; row
// blocks of C are independent tasks on the kernel pool. Determinism rule
// ("one writer per output element, fixed accumulation order"): a C element
// belongs to exactly one row-block task, and its value is a single register
// accumulation chain over k ascending — the same chain the reference kernel
// performs through memory — so bits match at every thread count.

constexpr std::size_t kPanelWidth = 32;  // NR: columns per packed B panel
constexpr std::size_t kMicroRows = 4;    // MR: C rows per micro-kernel step

/// Grain of the deterministic chunking used by the elementwise helpers.
/// Fixed — never derived from the thread count — so chunk boundaries (and
/// therefore bytes) are identical no matter how many workers execute them.
constexpr std::size_t kElemGrain = 16384;

std::size_t div_up(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Runs fn(index) for each index in [0, n), on the pool when asked.
void run_tasks(bool pooled, std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (pooled && n > 1) {
    parallel_for(detail::kernel_pool(), n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

/// Packs B columns [j0, j0+w) into dst, k-major: dst[kk*w + jj] = B[kk][j0+jj].
void pack_b_panel(const float* pb, std::size_t k, std::size_t n, std::size_t j0, std::size_t w,
                  float* dst) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* src = pb + kk * n + j0;
    float* out = dst + kk * w;
    for (std::size_t jj = 0; jj < w; ++jj) out[jj] = src[jj];
  }
}

/// pack_b_panel for a transposed operand: B is stored (n, k) row-major but
/// used as a (k, n) matrix. Produces the identical k-major panel layout —
/// dst[kk*w + jj] = B[j0+jj][kk] — so gemm and gemm_nt share every kernel
/// downstream of packing. Reads stream contiguously along each B row.
void pack_bt_panel(const float* pb, std::size_t k, std::size_t j0, std::size_t w, float* dst) {
  for (std::size_t jj = 0; jj < w; ++jj) {
    const float* src = pb + (j0 + jj) * k;
    for (std::size_t kk = 0; kk < k; ++kk) dst[kk * w + jj] = src[kk];
  }
}

/// R-row step of the gemm micro-kernel over one full-width packed panel.
/// Both R and W are compile-time constants so every loop below fully unrolls
/// and the R*W accumulators stay in vector registers across the whole k loop
/// — one chain per element, k ascending. A runtime row bound here makes the
/// compiler spill every chain to the stack (measured 3-4x SLOWER than the
/// reference); W = 32 (two 512-bit or four 256-bit vectors per row) measured
/// ~2.5x faster than W = 16 on the CI machine.
template <std::size_t R, std::size_t W>
void gemm_micro_step(const float* pa, const float* bp, float* pc, std::size_t k, std::size_t n,
                     std::size_t i, std::size_t j0) {
  const float* a[R];
  for (std::size_t r = 0; r < R; ++r) a[r] = pa + (i + r) * k;
  float acc[R][W] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = bp + kk * W;
    float v[R];
    for (std::size_t r = 0; r < R; ++r) v[r] = a[r][kk];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t jj = 0; jj < W; ++jj) acc[r][jj] += v[r] * brow[jj];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    std::copy(acc[r], acc[r] + W, pc + (i + r) * n + j0);
  }
}

/// gemm micro-kernel over one full-width packed panel: C rows [i0, i1),
/// columns [j0, j0 + W). The 6-row main body keeps 12 independent vector
/// FMA chains in flight, enough to cover FMA latency on one core; 2-row and
/// 1-row steps mop up the remaining rows.
template <std::size_t W>
void gemm_micro_full(const float* pa, const float* bp, float* pc, std::size_t k, std::size_t n,
                     std::size_t i0, std::size_t i1, std::size_t j0) {
  std::size_t i = i0;
  for (; i + 6 <= i1; i += 6) gemm_micro_step<6, W>(pa, bp, pc, k, n, i, j0);
  for (; i + 2 <= i1; i += 2) gemm_micro_step<2, W>(pa, bp, pc, k, n, i, j0);
  for (; i < i1; ++i) gemm_micro_step<1, W>(pa, bp, pc, k, n, i, j0);
}

/// Edge-panel variant for the (runtime) final width w < kPanelWidth.
void gemm_micro_edge(const float* pa, const float* bp, float* pc, std::size_t k, std::size_t n,
                     std::size_t i0, std::size_t i1, std::size_t j0, std::size_t w) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = pa + i * k;
    float acc[kPanelWidth] = {};
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* brow = bp + kk * w;
      for (std::size_t jj = 0; jj < w; ++jj) acc[jj] += aik * brow[jj];
    }
    std::copy(acc, acc + w, pc + i * n + j0);
  }
}

/// Shared blocked driver for gemm and gemm_nt. The only difference between
/// the two ops is how B reaches the k-major packed panels (pack_b_panel vs
/// pack_bt_panel); every kernel downstream of packing is identical, which is
/// both the perf story (gemm_nt used to run a strided dot kernel that never
/// vectorized) and the determinism story (one accumulation order to verify,
/// not two).
///
/// The pack buffer comes from the per-thread arena: steady-state calls do
/// zero heap allocations (the old std::vector alloc'd k*n floats per call).
/// Pool workers write disjoint panel ranges of it; alloc/rewind stay on the
/// calling thread as the arena contract requires.
void gemm_panels_blocked(const float* pa, const float* pb, float* pc, const GemmDims& d,
                         const KernelConfig& cfg, bool b_transposed) {
  const std::size_t npanels = div_up(d.n, kPanelWidth);
  // Panel p covers columns [p*W, p*W + w); packing it at offset j0*k keeps
  // the buffer exactly k*n floats with no holes.
  detail::ArenaScope scratch;
  float* packed = scratch.alloc(d.k * d.n);
  run_tasks(cfg.pooled(), npanels, [&](std::size_t p) {
    const std::size_t j0 = p * kPanelWidth;
    const std::size_t w = std::min(kPanelWidth, d.n - j0);
    float* dst = packed + j0 * d.k;
    if (b_transposed) {
      pack_bt_panel(pb, d.k, j0, w, dst);
    } else {
      pack_b_panel(pb, d.k, d.n, j0, w, dst);
    }
  });

  const std::size_t panels_per_pass = std::max<std::size_t>(1, cfg.block_cols / kPanelWidth);
  const std::size_t nblocks = div_up(d.m, cfg.block_rows);
  run_tasks(cfg.pooled(), nblocks, [&](std::size_t blk) {
    const std::size_t i0 = blk * cfg.block_rows;
    const std::size_t i1 = std::min(i0 + cfg.block_rows, d.m);
    for (std::size_t pc0 = 0; pc0 < npanels; pc0 += panels_per_pass) {
      const std::size_t pc1 = std::min(pc0 + panels_per_pass, npanels);
      for (std::size_t p = pc0; p < pc1; ++p) {
        const std::size_t j0 = p * kPanelWidth;
        const std::size_t w = std::min(kPanelWidth, d.n - j0);
        const float* bp = packed + j0 * d.k;
        if (w == kPanelWidth) {
          gemm_micro_full<kPanelWidth>(pa, bp, pc, d.k, d.n, i0, i1, j0);
        } else {
          gemm_micro_edge(pa, bp, pc, d.k, d.n, i0, i1, j0, w);
        }
      }
    }
  });
}

/// gemm_tn micro-kernels: C rows [i, i+R) x columns [j0, j0+W). A columns
/// i..i+R are adjacent floats within each A row, B rows are contiguous —
/// no packing needed. The row count is a compile-time constant and each row
/// gets its own named accumulator array: a runtime-bound row loop here makes
/// the compiler spill every chain to the stack (measured 3-4x SLOWER than
/// the reference), while the unrolled form holds all chains in registers.
template <std::size_t W>
void gemm_tn_micro_r4(const float* pa, const float* pb, float* pc, const GemmDims& d,
                      std::size_t i, std::size_t j0) {
  float acc0[W] = {}, acc1[W] = {}, acc2[W] = {}, acc3[W] = {};
  for (std::size_t kk = 0; kk < d.k; ++kk) {
    const float* arow = pa + kk * d.m + i;
    const float* brow = pb + kk * d.n + j0;
    const float v0 = arow[0], v1 = arow[1], v2 = arow[2], v3 = arow[3];
    for (std::size_t jj = 0; jj < W; ++jj) {
      const float bv = brow[jj];
      acc0[jj] += v0 * bv;
      acc1[jj] += v1 * bv;
      acc2[jj] += v2 * bv;
      acc3[jj] += v3 * bv;
    }
  }
  std::copy(acc0, acc0 + W, pc + (i + 0) * d.n + j0);
  std::copy(acc1, acc1 + W, pc + (i + 1) * d.n + j0);
  std::copy(acc2, acc2 + W, pc + (i + 2) * d.n + j0);
  std::copy(acc3, acc3 + W, pc + (i + 3) * d.n + j0);
}

/// Single-row variant with runtime width for all edges (rows % 4, n % W).
void gemm_tn_micro_r1(const float* pa, const float* pb, float* pc, const GemmDims& d,
                      std::size_t i, std::size_t j0, std::size_t w) {
  float acc[kPanelWidth] = {};
  for (std::size_t kk = 0; kk < d.k; ++kk) {
    const float av = pa[kk * d.m + i];
    const float* brow = pb + kk * d.n + j0;
    for (std::size_t jj = 0; jj < w; ++jj) acc[jj] += av * brow[jj];
  }
  std::copy(acc, acc + w, pc + i * d.n + j0);
}

void gemm_tn_blocked(const float* pa, const float* pb, float* pc, const GemmDims& d,
                     const KernelConfig& cfg) {
  const std::size_t nblocks = div_up(d.m, cfg.block_rows);
  run_tasks(cfg.pooled(), nblocks, [&](std::size_t blk) {
    const std::size_t i0 = blk * cfg.block_rows;
    const std::size_t i1 = std::min(i0 + cfg.block_rows, d.m);
    std::size_t i = i0;
    for (; i + kMicroRows <= i1; i += kMicroRows) {
      std::size_t j0 = 0;
      for (; j0 + kPanelWidth <= d.n; j0 += kPanelWidth) {
        gemm_tn_micro_r4<kPanelWidth>(pa, pb, pc, d, i, j0);
      }
      if (j0 < d.n) {
        for (std::size_t r = 0; r < kMicroRows; ++r) {
          gemm_tn_micro_r1(pa, pb, pc, d, i + r, j0, d.n - j0);
        }
      }
    }
    for (; i < i1; ++i) {
      for (std::size_t j0 = 0; j0 < d.n; j0 += kPanelWidth) {
        gemm_tn_micro_r1(pa, pb, pc, d, i, j0, std::min(kPanelWidth, d.n - j0));
      }
    }
  });
}

/// Which tier a gemm of these dims runs under cfg. One rule for all three
/// variants, on problem size alone: below min_blocked_flops the
/// blocking/packing overhead loses to the plain reference loop (this is what
/// fixes the small-size gemm_nt regression — tiny matmuls take the reference
/// path outright), at or above it the blocked drivers run.
GemmPath plan_path(const GemmDims& d, const KernelConfig& cfg) {
  return d.m * d.k * d.n < cfg.min_blocked_flops ? GemmPath::kReference : GemmPath::kBlocked;
}

// 2*m*k*n multiply-adds; bytes = read A, read B, write C (float32).
double gemm_flops(const GemmDims& d) {
  return 2.0 * static_cast<double>(d.m) * static_cast<double>(d.k) * static_cast<double>(d.n);
}

double gemm_bytes(const GemmDims& d) {
  return 4.0 * (static_cast<double>(d.m) * static_cast<double>(d.k) +
                static_cast<double>(d.k) * static_cast<double>(d.n) +
                static_cast<double>(d.m) * static_cast<double>(d.n));
}

}  // namespace

GemmPath planned_gemm_path(std::size_t m, std::size_t k, std::size_t n) {
  return plan_path({m, k, n}, kernel_config());
}

void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  const GemmDims d = check_gemm(a, b, c);
  obs::ProfileScope prof("gemm");
  prof.add_work(gemm_flops(d), gemm_bytes(d));
  const KernelConfig cfg = kernel_config();
  if (plan_path(d, cfg) != GemmPath::kReference) {
    gemm_panels_blocked(a.data(), b.data(), c.data(), d, cfg, /*b_transposed=*/false);
  } else {
    gemm_ref_impl(a.data(), b.data(), c.data(), d);
  }
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  const GemmDims d = check_gemm_nt(a, b, c);
  obs::ProfileScope prof("gemm_nt");
  prof.add_work(gemm_flops(d), gemm_bytes(d));
  const KernelConfig cfg = kernel_config();
  if (plan_path(d, cfg) != GemmPath::kReference) {
    gemm_panels_blocked(a.data(), b.data(), c.data(), d, cfg, /*b_transposed=*/true);
  } else {
    gemm_nt_ref_impl(a.data(), b.data(), c.data(), d);
  }
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  const GemmDims d = check_gemm_tn(a, b, c);
  obs::ProfileScope prof("gemm_tn");
  prof.add_work(gemm_flops(d), gemm_bytes(d));
  const KernelConfig cfg = kernel_config();
  if (plan_path(d, cfg) != GemmPath::kReference) {
    gemm_tn_blocked(a.data(), b.data(), c.data(), d, cfg);
  } else {
    gemm_tn_ref_impl(a.data(), b.data(), c.data(), d);
  }
}

void gemm_ref(const Tensor& a, const Tensor& b, Tensor& c) {
  const GemmDims d = check_gemm(a, b, c);
  gemm_ref_impl(a.data(), b.data(), c.data(), d);
}

void gemm_nt_ref(const Tensor& a, const Tensor& b, Tensor& c) {
  const GemmDims d = check_gemm_nt(a, b, c);
  gemm_nt_ref_impl(a.data(), b.data(), c.data(), d);
}

void gemm_tn_ref(const Tensor& a, const Tensor& b, Tensor& c) {
  const GemmDims d = check_gemm_tn(a, b, c);
  gemm_tn_ref_impl(a.data(), b.data(), c.data(), d);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  gemm(a, b, c);
  return c;
}

void parallel_elems(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const KernelConfig cfg = kernel_config();
  const std::size_t chunks = div_up(n, kElemGrain);
  if (!cfg.pooled() || n < cfg.min_parallel_elems || chunks < 2) {
    fn(0, n);
    return;
  }
  parallel_for(detail::kernel_pool(), chunks, [&](std::size_t c) {
    fn(c * kElemGrain, std::min(n, (c + 1) * kElemGrain));
  });
}

void parallel_rows(std::size_t rows, std::size_t cols,
                   const std::function<void(std::size_t, std::size_t)>& fn) {
  if (rows == 0) return;
  const KernelConfig cfg = kernel_config();
  const std::size_t grain = std::max<std::size_t>(1, kElemGrain / std::max<std::size_t>(1, cols));
  const std::size_t chunks = div_up(rows, grain);
  if (!cfg.pooled() || rows * std::max<std::size_t>(1, cols) < cfg.min_parallel_elems ||
      chunks < 2) {
    fn(0, rows);
    return;
  }
  parallel_for(detail::kernel_pool(), chunks, [&](std::size_t c) {
    fn(c * grain, std::min(rows, (c + 1) * grain));
  });
}

void add_inplace(Tensor& y, const Tensor& x) { axpy(1.0f, x, y); }

void axpy(float alpha, const Tensor& x, Tensor& y) {
  if (x.shape() != y.shape()) {
    throw std::invalid_argument("axpy: shape mismatch " + to_string(x.shape()) + " vs " +
                                to_string(y.shape()));
  }
  obs::ProfileScope prof("axpy");
  prof.add_work(2.0 * static_cast<double>(y.size()), 12.0 * static_cast<double>(y.size()));
  float* py = y.data();
  const float* px = x.data();
  parallel_elems(y.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) py[i] += alpha * px[i];
  });
}

void scale_inplace(Tensor& y, float alpha) {
  obs::ProfileScope prof("scale_inplace");
  prof.add_work(static_cast<double>(y.size()), 8.0 * static_cast<double>(y.size()));
  float* py = y.data();
  parallel_elems(y.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) py[i] *= alpha;
  });
}

void add_row_bias(Tensor& y, const Tensor& bias) {
  require_rank2(y, "add_row_bias y");
  if (bias.rank() != 1 || bias.dim(0) != y.dim(1)) {
    throw std::invalid_argument("add_row_bias: bias shape " + to_string(bias.shape()) +
                                " incompatible with " + to_string(y.shape()));
  }
  const std::size_t m = y.dim(0), n = y.dim(1);
  obs::ProfileScope prof("add_row_bias");
  prof.add_work(static_cast<double>(m) * static_cast<double>(n),
                4.0 * (2.0 * static_cast<double>(m) * static_cast<double>(n) +
                       static_cast<double>(n)));
  float* py = y.data();
  const float* pb = bias.data();
  parallel_rows(m, n, [&](std::size_t rb, std::size_t re) {
    for (std::size_t i = rb; i < re; ++i) {
      float* row = py + i * n;
      for (std::size_t j = 0; j < n; ++j) row[j] += pb[j];
    }
  });
}

void accumulate_col_sums(const Tensor& g, Tensor& out) {
  require_rank2(g, "accumulate_col_sums g");
  if (out.rank() != 1 || out.dim(0) != g.dim(1)) {
    throw std::invalid_argument("accumulate_col_sums: out shape " + to_string(out.shape()) +
                                " incompatible with " + to_string(g.shape()));
  }
  const std::size_t m = g.dim(0), n = g.dim(1);
  obs::ProfileScope prof("accumulate_col_sums");
  prof.add_work(static_cast<double>(m) * static_cast<double>(n),
                4.0 * (static_cast<double>(m) * static_cast<double>(n) +
                       2.0 * static_cast<double>(n)));
  const float* pg = g.data();
  float* po = out.data();
  // Parallel over column ranges: each out[j] has a single writer, and its
  // accumulation stays row-ascending — the serial order — per column.
  parallel_rows(n, m, [&](std::size_t jb, std::size_t je) {
    for (std::size_t i = 0; i < m; ++i) {
      const float* row = pg + i * n;
      for (std::size_t j = jb; j < je; ++j) po[j] += row[j];
    }
  });
}

float sum(const Tensor& t) {
  double acc = 0.0;
  for (float v : t.flat()) acc += v;
  return static_cast<float>(acc);
}

float mean(const Tensor& t) {
  return t.size() == 0 ? 0.0f : sum(t) / static_cast<float>(t.size());
}

float dot(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("dot: shape mismatch");
  }
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) acc += static_cast<double>(pa[i]) * pb[i];
  return static_cast<float>(acc);
}

float squared_norm(const Tensor& t) { return dot(t, t); }

}  // namespace ncnas::tensor
