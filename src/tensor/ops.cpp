#include "ncnas/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "ncnas/obs/profiler.hpp"
#include "ncnas/tensor/arena.hpp"
#include "ncnas/tensor/kernel_config.hpp"

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
// Layout: B is packed into k-major micro-panels of kPanelWidth columns, and
// C is computed one row block at a time. A full panel runs gemm_micro_step;
// the last panel, n % 32 columns wide, runs the strip steps split 16 -> 8 ->
// under 8 (the search spaces' widths are 16 mod 32 more often than not:
// 16, 48 and 144). gemm_tn runs the strip steps on every column, and so do
// the controller's gemm_rows and accumulate_gemm_tn_steps. Determinism
// rule: a C element's value is a single register accumulation chain over k
// ascending — the same chain the reference kernel performs through memory —
// so bits match the reference wherever the blocks cut a problem. The conv runs the
// strip steps too, from C's current value (StripMode::kLoad below).

constexpr std::size_t kPanelWidth = 32;  // NR: columns per packed B panel
constexpr std::size_t kMicroRows = 4;    // MR: C rows per micro-kernel step

/// The multiply-add spelled out: madd is exactly what the build makes of
/// `c + a * b` in the reference loops — one fused rounding where the target
/// has FMA (-ffp-contract=fast contracts it there), two roundings where it
/// has none. Left to contraction, register-blocked loops are not safe: when
/// the vectorizer groups lanes across rows it can keep the multiply and the
/// add apart, and the bits drift from the reference (measured on an AVX-512
/// host, both for the few-row kernels and for a 16-wide 4-row gemm step).
/// Every kernel below but the full-panel gemm_micro_step spells it.
inline float madd(float a, float b, float c) {
#ifdef __FP_FAST_FMAF
  return std::fma(a, b, c);
#else
  return c + a * b;
#endif
}

std::size_t div_up(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

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
/// reference). Only W = 32 (two 512-bit or four 256-bit vectors per row)
/// runs here: at W = 16 this accumulator matrix vectorizes across rows and
/// measured 2-10 GF/s, so narrower columns take the strip steps. Kept out of
/// line for the same reason: inlined into the row-block loop, that loop's
/// live values compete with the accumulators for registers (see
/// strip_step_r4).
template <std::size_t R, std::size_t W>
[[gnu::noinline]] void gemm_micro_step(const float* pa, const float* bp, float* pc, std::size_t k, std::size_t n,
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

/// Calls fn(std::integral_constant<std::size_t, w>{}) for a runtime edge
/// width w in [1, 8), so edge tiles too have a compile-time width and keep
/// their accumulators in registers (a runtime-width tile measured ~4x
/// slower).
template <class Fn>
void with_edge_width(std::size_t w, Fn&& fn) {
  switch (w) {
    case 1: fn(std::integral_constant<std::size_t, 1>{}); break;
    case 2: fn(std::integral_constant<std::size_t, 2>{}); break;
    case 3: fn(std::integral_constant<std::size_t, 3>{}); break;
    case 4: fn(std::integral_constant<std::size_t, 4>{}); break;
    case 5: fn(std::integral_constant<std::size_t, 5>{}); break;
    case 6: fn(std::integral_constant<std::size_t, 6>{}); break;
    case 7: fn(std::integral_constant<std::size_t, 7>{}); break;
    default: break;
  }
}

/// One strip of C for the steps below: row kk of B at b + kk * ldb, row r
/// of C at c + r * ldc, and element (r, kk) of A at a[r * lda + kk] — or,
/// when the steps' TransA is set, at a[r + kk * lda]. gemm reads its tail
/// panel this way (ldb = the panel's width), gemm_tn its operands in place
/// (TransA, lda = m, ldb = n), gemm_rows its row-major operands in place
/// (ldb = n), and the conv its input's overlapping windows (lda = the
/// channel count, TransA for the weight gradient). TransA is a template
/// parameter so that one of A's two strides is a compile-time 1: with both
/// at run time the gemm tail measured ~30 % slower.
struct Strip {
  const float* a;
  std::size_t lda;
  const float* b;
  std::size_t ldb;
  float* c;
  std::size_t ldc, k;
};

template <bool TransA>
const float* strip_row(const Strip& s, std::size_t r) {
  return TransA ? s.a + r : s.a + r * s.lda;
}

/// How a strip step starts and stores each C element's chain:
///  * kSet: from +0, then c = acc — the gemms' zeroed C.
///  * kAdd: from +0, then c += acc — one rounding of c + term, the
///    add_inplace that accumulate_gemm_tn_steps folds in.
///  * kLoad: from c's current value, then c = acc — the chain a loop's
///    `c += a * b` runs through memory, continued in registers and fused by
///    madd the way the build fuses that loop (the conv's bias preset and
///    its weight gradient).
enum class StripMode { kSet, kAdd, kLoad };

template <StripMode Mode, std::size_t W>
void start_row(const float* c, float* acc) {
  if constexpr (Mode == StripMode::kLoad) {
    std::copy(c, c + W, acc);
  } else {
    std::fill(acc, acc + W, 0.0f);
  }
}

template <StripMode Mode, std::size_t W>
void store_row(const float* acc, float* c) {
  if constexpr (Mode == StripMode::kAdd) {
    for (std::size_t jj = 0; jj < W; ++jj) c[jj] += acc[jj];
  } else {
    std::copy(acc, acc + W, c);
  }
}

/// 4-row step over W columns of a strip. The row count is a compile-time
/// constant and each row gets its own named accumulator array: a
/// runtime-bound row loop here makes the compiler spill every chain to the
/// stack (measured 3-4x SLOWER than the reference), and an accumulator
/// matrix (gemm_micro_step<4, 16>) vectorizes across rows and measured 2-10
/// GF/s. Kept out of line: GCC 12 inlines it into the row loop when nothing
/// stops it, and gemm_tn 128^3 then measured ~45 instead of ~58 GFLOP/s on a
/// 4-core AVX-512 VM.
template <bool TransA, StripMode Mode, std::size_t W>
[[gnu::noinline]] void strip_step_r4(const Strip& s) {
  const float *a0 = strip_row<TransA>(s, 0), *a1 = strip_row<TransA>(s, 1),
              *a2 = strip_row<TransA>(s, 2), *a3 = strip_row<TransA>(s, 3);
  const std::size_t ak = TransA ? s.lda : 1;  // A's stride along k
  float acc0[W], acc1[W], acc2[W], acc3[W];
  start_row<Mode, W>(s.c, acc0);
  start_row<Mode, W>(s.c + s.ldc, acc1);
  start_row<Mode, W>(s.c + 2 * s.ldc, acc2);
  start_row<Mode, W>(s.c + 3 * s.ldc, acc3);
  for (std::size_t kk = 0; kk < s.k; ++kk) {
    const float* brow = s.b + kk * s.ldb;
    const float v0 = a0[kk * ak], v1 = a1[kk * ak], v2 = a2[kk * ak], v3 = a3[kk * ak];
    for (std::size_t jj = 0; jj < W; ++jj) {
      const float bv = brow[jj];
      acc0[jj] = madd(v0, bv, acc0[jj]);
      acc1[jj] = madd(v1, bv, acc1[jj]);
      acc2[jj] = madd(v2, bv, acc2[jj]);
      acc3[jj] = madd(v3, bv, acc3[jj]);
    }
  }
  store_row<Mode, W>(acc0, s.c);
  store_row<Mode, W>(acc1, s.c + s.ldc);
  store_row<Mode, W>(acc2, s.c + 2 * s.ldc);
  store_row<Mode, W>(acc3, s.c + 3 * s.ldc);
}

/// 1-row step over W columns of a strip.
template <bool TransA, StripMode Mode, std::size_t W>
[[gnu::noinline]] void strip_step_r1(const Strip& s) {
  const std::size_t ak = TransA ? s.lda : 1;
  float acc[W];
  start_row<Mode, W>(s.c, acc);
  for (std::size_t kk = 0; kk < s.k; ++kk) {
    const float av = s.a[kk * ak];
    const float* brow = s.b + kk * s.ldb;
    for (std::size_t jj = 0; jj < W; ++jj) acc[jj] = madd(av, brow[jj], acc[jj]);
  }
  store_row<Mode, W>(acc, s.c);
}

/// Rows [0, rows) of W strip columns: 4-row steps, then single rows.
template <bool TransA, StripMode Mode, std::size_t W>
void strip_rows(Strip s, std::size_t rows) {
  std::size_t i = 0;
  for (; i + kMicroRows <= rows; i += kMicroRows) {
    strip_step_r4<TransA, Mode, W>(s);
    s.a = strip_row<TransA>(s, kMicroRows);
    s.c += kMicroRows * s.ldc;
  }
  for (; i < rows; ++i) {
    strip_step_r1<TransA, Mode, W>(s);
    s.a = strip_row<TransA>(s, 1);
    s.c += s.ldc;
  }
}

/// Columns [0, w) of the strip's rows [0, rows): 32-wide tiles, then the
/// rest split 16 -> 8 -> under 8, so every step has a compile-time width
/// and keeps its accumulators in registers. The one column-split rule: the
/// gemm tail panel, gemm_tn, the conv and the controller's gemm_rows and
/// accumulate_gemm_tn_steps all run it.
template <bool TransA, StripMode Mode = StripMode::kSet>
void strip_cols(const Strip& s, std::size_t rows, std::size_t w) {
  std::size_t j = 0;
  const auto tiles = [&](auto width) {
    Strip part = s;
    part.b += j;
    part.c += j;
    strip_rows<TransA, Mode, width()>(part, rows);
    j += width();
  };
  while (j + kPanelWidth <= w) tiles(std::integral_constant<std::size_t, kPanelWidth>{});
  if (j + 16 <= w) tiles(std::integral_constant<std::size_t, 16>{});
  if (j + 8 <= w) tiles(std::integral_constant<std::size_t, 8>{});
  with_edge_width(w - j, tiles);
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
void gemm_panels_blocked(const float* pa, const float* pb, float* pc, const GemmDims& d,
                         bool b_transposed) {
  const std::size_t npanels = div_up(d.n, kPanelWidth);
  // Panel p covers columns [p*W, p*W + w); packing it at offset j0*k keeps
  // the buffer exactly k*n floats with no holes.
  detail::ArenaScope scratch;
  float* packed = scratch.alloc(d.k * d.n);
  for (std::size_t p = 0; p < npanels; ++p) {
    const std::size_t j0 = p * kPanelWidth;
    const std::size_t w = std::min(kPanelWidth, d.n - j0);
    float* dst = packed + j0 * d.k;
    if (b_transposed) {
      pack_bt_panel(pb, d.k, j0, w, dst);
    } else {
      pack_b_panel(pb, d.k, d.n, j0, w, dst);
    }
  }

  constexpr std::size_t panels_per_pass = KernelConfig::block_cols / kPanelWidth;
  static_assert(panels_per_pass > 0 && KernelConfig::block_cols % kPanelWidth == 0);
  for (std::size_t i0 = 0; i0 < d.m; i0 += KernelConfig::block_rows) {
    const std::size_t i1 = std::min(i0 + KernelConfig::block_rows, d.m);
    for (std::size_t pc0 = 0; pc0 < npanels; pc0 += panels_per_pass) {
      const std::size_t pc1 = std::min(pc0 + panels_per_pass, npanels);
      for (std::size_t p = pc0; p < pc1; ++p) {
        const std::size_t j0 = p * kPanelWidth;
        const std::size_t w = std::min(kPanelWidth, d.n - j0);
        const float* bp = packed + j0 * d.k;
        if (w == kPanelWidth) {
          gemm_micro_full<kPanelWidth>(pa, bp, pc, d.k, d.n, i0, i1, j0);
        } else {
          strip_cols<false>({pa + i0 * d.k, d.k, bp, w, pc + i0 * d.n + j0, d.n, d.k}, i1 - i0,
                            w);
        }
      }
    }
  }
}

/// gemm_tn needs no packing: A columns i..i+3 are adjacent floats within
/// each A row, and B rows are contiguous, so each row block is one strip.
void gemm_tn_blocked(const float* pa, const float* pb, float* pc, const GemmDims& d) {
  for (std::size_t i0 = 0; i0 < d.m; i0 += KernelConfig::block_rows) {
    const std::size_t i1 = std::min(i0 + KernelConfig::block_rows, d.m);
    strip_cols<true>({pa + i0, d.m, pb, d.n, pc + i0 * d.n, d.n, d.k}, i1 - i0, d.n);
  }
}

/// Which tier a gemm of these dims runs on. One rule for all three
/// variants, on problem size alone: below min_blocked_flops the
/// blocking/packing overhead loses to the plain reference loop (this is what
/// fixes the small-size gemm_nt regression — tiny matmuls take the reference
/// path outright), at or above it the blocked drivers run.
GemmPath plan_path(const GemmDims& d) {
  return d.m * d.k * d.n < KernelConfig::min_blocked_flops ? GemmPath::kReference
                                                            : GemmPath::kBlocked;
}

struct ConvDims {
  std::size_t batch, len, cin, kernel, filters, out_len;
};

/// Checks x(batch, len, cin) against w(kernel * cin, filters), the layout of
/// Conv1D's weight and its gradient, and derives kernel and out_len.
ConvDims check_conv(const Tensor& x, const Tensor& w, const char* what) {
  if (x.rank() != 3) {
    throw std::invalid_argument(std::string(what) +
                                ": expected rank-3 [batch, length, channels] input, got " +
                                to_string(x.shape()));
  }
  require_rank2(w, what);
  const std::size_t batch = x.dim(0), len = x.dim(1), cin = x.dim(2);
  if (cin == 0 || w.dim(0) == 0 || w.dim(0) % cin != 0 || w.dim(0) / cin > len) {
    throw std::invalid_argument(std::string(what) + ": weight " + to_string(w.shape()) +
                                " is no [kernel * channels, filters] window over input " +
                                to_string(x.shape()));
  }
  const std::size_t kernel = w.dim(0) / cin;
  return {batch, len, cin, kernel, w.dim(1), len - kernel + 1};
}

// 2 * batch * out_len * kernel * cin * filters: one multiply-add per window
// element and filter.
double conv_flops(const ConvDims& d) {
  return 2.0 * static_cast<double>(d.batch * d.out_len) *
         static_cast<double>(d.kernel * d.cin) * static_cast<double>(d.filters);
}

double float_bytes(std::size_t floats) { return 4.0 * static_cast<double>(floats); }

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
  return plan_path({m, k, n});
}

void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  const GemmDims d = check_gemm(a, b, c);
  obs::ProfileScope prof("gemm");
  prof.add_work(gemm_flops(d), gemm_bytes(d));
  if (plan_path(d) != GemmPath::kReference) {
    gemm_panels_blocked(a.data(), b.data(), c.data(), d, /*b_transposed=*/false);
  } else {
    gemm_ref_impl(a.data(), b.data(), c.data(), d);
  }
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  const GemmDims d = check_gemm_nt(a, b, c);
  obs::ProfileScope prof("gemm_nt");
  prof.add_work(gemm_flops(d), gemm_bytes(d));
  if (plan_path(d) != GemmPath::kReference) {
    gemm_panels_blocked(a.data(), b.data(), c.data(), d, /*b_transposed=*/true);
  } else {
    gemm_nt_ref_impl(a.data(), b.data(), c.data(), d);
  }
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  const GemmDims d = check_gemm_tn(a, b, c);
  obs::ProfileScope prof("gemm_tn");
  prof.add_work(gemm_flops(d), gemm_bytes(d));
  if (plan_path(d) != GemmPath::kReference) {
    gemm_tn_blocked(a.data(), b.data(), c.data(), d);
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

void gemm_rows(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n) {
  strip_cols<false>({a, k, b, n, c, n, k}, m, n);
}

void accumulate_gemm_tn_steps(const float* a, const float* b, float* g, std::size_t steps,
                              std::size_t k, std::size_t m, std::size_t n) {
  for (std::size_t s = steps; s-- > 0;) {
    strip_cols<true, StripMode::kAdd>({a + s * k * m, m, b + s * k * n, n, g, n, k}, m, n);
  }
}

void conv1d(const Tensor& x, const Tensor& w, const Tensor& bias, Tensor& y) {
  const ConvDims d = check_conv(x, w, "conv1d");
  if (bias.rank() != 1 || bias.dim(0) != d.filters) {
    throw std::invalid_argument("conv1d: bias shape " + to_string(bias.shape()) +
                                " incompatible with weight " + to_string(w.shape()));
  }
  y.require_shape({d.batch, d.out_len, d.filters}, "conv1d y");
  obs::ProfileScope prof("conv1d");
  prof.add_work(conv_flops(d), float_bytes(x.size() + w.size() + bias.size() + y.size()));
  float* py = y.data();
  for (std::size_t r = 0; r < d.batch * d.out_len; ++r) {
    std::copy(bias.data(), bias.data() + d.filters, py + r * d.filters);
  }
  // Output row p of sample b reads the kernel * cin floats from x row p on:
  // A's rows are those windows, overlapping at stride lda = cin.
  for (std::size_t b = 0; b < d.batch; ++b) {
    strip_cols<false, StripMode::kLoad>({x.data() + b * d.len * d.cin, d.cin, w.data(), d.filters,
                                         py + b * d.out_len * d.filters, d.filters,
                                         d.kernel * d.cin},
                                        d.out_len, d.filters);
  }
}

void conv1d_dw(const Tensor& x, const Tensor& grad, Tensor& dw) {
  const ConvDims d = check_conv(x, dw, "conv1d_dw");
  grad.require_shape({d.batch, d.out_len, d.filters}, "conv1d_dw grad");
  obs::ProfileScope prof("conv1d_dw");
  prof.add_work(conv_flops(d), float_bytes(x.size() + grad.size() + 2 * dw.size()));
  // dw(t, f) += sum over p of x_b(p, t) * grad_b(p, f): gemm_tn with A's
  // element (t, p) at x_b[p * cin + t], i.e. lda = cin.
  for (std::size_t b = 0; b < d.batch; ++b) {
    strip_cols<true, StripMode::kLoad>({x.data() + b * d.len * d.cin, d.cin,
                                        grad.data() + b * d.out_len * d.filters, d.filters,
                                        dw.data(), d.filters, d.out_len},
                                       d.kernel * d.cin, d.filters);
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  gemm(a, b, c);
  return c;
}

void add_inplace(Tensor& y, const Tensor& x) { axpy(1.0f, x, y); }

void copy_into(const Tensor& src, Tensor& dst) {
  if (&src == &dst) return;
  dst.reset(src.shape());
  std::copy(src.data(), src.data() + src.size(), dst.data());
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  if (x.shape() != y.shape()) {
    throw std::invalid_argument("axpy: shape mismatch " + to_string(x.shape()) + " vs " +
                                to_string(y.shape()));
  }
  obs::ProfileScope prof("axpy");
  prof.add_work(2.0 * static_cast<double>(y.size()), 12.0 * static_cast<double>(y.size()));
  float* py = y.data();
  const float* px = x.data();
  for (std::size_t i = 0; i < y.size(); ++i) py[i] += alpha * px[i];
}

void scale_inplace(Tensor& y, float alpha) {
  obs::ProfileScope prof("scale_inplace");
  prof.add_work(static_cast<double>(y.size()), 8.0 * static_cast<double>(y.size()));
  float* py = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) py[i] *= alpha;
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
  for (std::size_t i = 0; i < m; ++i) {
    float* row = py + i * n;
    for (std::size_t j = 0; j < n; ++j) row[j] += pb[j];
  }
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
  // Each out[j] accumulates row-ascending.
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = pg + i * n;
    for (std::size_t j = 0; j < n; ++j) po[j] += row[j];
  }
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
