// Dense linear-algebra kernels used by the nn layers.
//
// Two tiers; which one a gemm runs on depends only on its size (see
// KernelConfig::min_blocked_flops in kernel_config.hpp):
//
//  * Blocked kernels (the default for every problem above the threshold):
//    cache-blocked, B-panel-packed micro-kernels, optionally parallelized
//    over row blocks of the output on a dedicated internal ThreadPool.
//    Deterministic by construction — each output element is written by
//    exactly one task and accumulated in the same k-ascending order at every
//    thread count — so results stay bit-identical across 1..N threads and
//    against the reference kernels.
//  * Reference kernels (`*_ref`, and every problem below the threshold): the
//    original single-threaded triple loops. These are the oracles — simple
//    enough to be obviously correct, and the bit-exact ground truth
//    kernel_diff_test compares against.
//
// Both gemm and gemm_nt share one packed-panel driver: gemm_nt packs B^T
// into the same k-major panel layout and runs the exact same micro-kernels,
// rather than a separate strided kernel.
//
// NaN semantics: kernels never skip zero operands, so 0 * NaN = NaN
// propagates into the output like IEEE 754 says it should. (An earlier
// `if (aik == 0.0f) continue;` fast path made FLOP counts data-dependent
// and silently masked NaN/Inf in the other operand; kernel_diff_test pins
// the propagating behaviour.)
//
// Reductions (sum/mean/dot/squared_norm) intentionally stay serial in every
// mode: they are single accumulation chains, and splitting them across
// threads would change the addition tree and break bit-identity.
#pragma once

#include <functional>

#include "ncnas/tensor/tensor.hpp"

namespace ncnas::tensor {

/// The execution tier a gemm dispatches to (see the header comment).
enum class GemmPath {
  kReference = 0,  ///< serial triple loop (below min_blocked_flops)
  kBlocked = 1,    ///< packed-panel micro-kernels
};

/// The tier a gemm/gemm_nt/gemm_tn of dims (m, k, n) would run on under the
/// currently installed KernelConfig. Pure planning — no work is done. All
/// three variants share one dispatch rule, so one introspection covers them;
/// tests use this to pin the reference/blocked crossover.
[[nodiscard]] GemmPath planned_gemm_path(std::size_t m, std::size_t k, std::size_t n);

/// C = A(m,k) * B(k,n). Shapes validated; C is overwritten. Runs on the
/// tier planned_gemm_path() names.
void gemm(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A(m,k) * B(n,k)^T.
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A(k,m)^T * B(k,n).
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c);

/// Serial reference kernels — ignore KernelConfig entirely. The differential
/// oracles for the blocked kernels, and the baseline bench_kernels measures
/// speedup against.
void gemm_ref(const Tensor& a, const Tensor& b, Tensor& c);
void gemm_nt_ref(const Tensor& a, const Tensor& b, Tensor& c);
void gemm_tn_ref(const Tensor& a, const Tensor& b, Tensor& c);

/// Returns A * B freshly allocated.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// y += x (same shape).
void add_inplace(Tensor& y, const Tensor& x);

/// y += alpha * x (same shape). The axpy of reference BLAS.
void axpy(float alpha, const Tensor& x, Tensor& y);

/// y *= alpha.
void scale_inplace(Tensor& y, float alpha);

/// Adds a row vector `bias`(n) to every row of `y`(m,n).
void add_row_bias(Tensor& y, const Tensor& bias);

/// Accumulates column sums of `g`(m,n) into `out`(n): out += sum_rows(g).
void accumulate_col_sums(const Tensor& g, Tensor& out);

/// Sum of all elements.
[[nodiscard]] float sum(const Tensor& t);

/// Mean of all elements (0 for empty tensors).
[[nodiscard]] float mean(const Tensor& t);

/// Dot product of two same-shape tensors viewed flat.
[[nodiscard]] float dot(const Tensor& a, const Tensor& b);

/// Squared L2 norm.
[[nodiscard]] float squared_norm(const Tensor& t);

/// Runs fn(begin, end) over disjoint fixed-grain chunks of [0, n). Chunk
/// boundaries depend only on n — never on the thread count — and each index
/// belongs to exactly one chunk, so any fn whose per-index work is
/// independent produces identical bytes serially and on the pool. Runs on
/// the kernel pool when the installed KernelConfig is pooled and n clears
/// its min_parallel_elems threshold; serially otherwise.
void parallel_elems(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

/// Row-sliced variant for 2-D work: fn(row_begin, row_end) over chunks whose
/// grain is derived from `cols` (so a chunk is a constant amount of work
/// regardless of matrix shape). Same determinism contract as parallel_elems.
void parallel_rows(std::size_t rows, std::size_t cols,
                   const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace ncnas::tensor
