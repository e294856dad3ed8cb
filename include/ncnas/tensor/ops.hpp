// Dense linear-algebra kernels used by the nn layers.
//
// Two tiers; which one a gemm runs on depends only on its size (see
// KernelConfig::min_blocked_flops in kernel_config.hpp):
//
//  * Blocked kernels (the default for every problem above the threshold):
//    cache-blocked micro-kernels over B packed into 32-column panels. The
//    last n % 32 columns run register-blocked 4-row steps 16, 8 and then
//    1-7 columns wide, so the search spaces' 16-, 48- and 144-wide layers
//    run near the full panels' speed; gemm_tn runs the same steps on A and
//    B in place. Deterministic by construction — each output element is
//    accumulated in the same k-ascending order as the reference loop, for
//    any block geometry — so results stay bit-identical against the
//    reference kernels.
//  * Reference kernels (`*_ref`, and every problem below the threshold): the
//    original single-threaded triple loops. These are the oracles — simple
//    enough to be obviously correct, and the bit-exact ground truth
//    kernel_diff_test compares against.
//
// conv1d and conv1d_dw, Conv1D's forward pass and weight gradient, run the
// same strip steps with no tier: each output element's chain starts from
// its current value (the bias preset, or the gradient so far) instead of
// +0, so it continues the chain the direct conv loops ran through memory,
// term for term, and the bits are theirs.
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
// Every kernel runs on the calling thread (see kernel_config.hpp for why);
// concurrent calls from different threads are safe, since each thread packs
// into its own arena.
#pragma once

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

/// y(batch, out_len, filters) = bias + the valid, stride-1 1-D convolution
/// of x(batch, len, cin) with w(kernel * cin, filters), out_len = len -
/// kernel + 1, where w's row t * cin + c holds offset t of channel c. Each
/// element starts from bias[f] and adds its kernel * cin terms window-offset
/// ascending. Shapes validated; y must already have its shape.
void conv1d(const Tensor& x, const Tensor& w, const Tensor& bias, Tensor& y);

/// dw(kernel * cin, filters) += the weight gradient of conv1d for x and the
/// output gradient grad(batch, out_len, filters): each element's chain runs
/// over (b, p) ascending from dw's current value.
void conv1d_dw(const Tensor& x, const Tensor& grad, Tensor& dw);

/// Returns A * B freshly allocated.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// y += x (same shape).
void add_inplace(Tensor& y, const Tensor& x);

/// dst = src, reusing dst's capacity; a growth counts as a profiler
/// allocation, like Tensor::reset().
void copy_into(const Tensor& src, Tensor& dst);

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

/// --- few-row kernels on raw buffers ------------------------------------------
/// For callers that own their buffers and run many tiny products (the RL
/// controller's LSTM and heads, at a handful of rows): no shape checks, no
/// tier dispatch and no profiler scope. Both run the register-blocked strip
/// steps of the blocked tier — 4-row then 1-row steps, 32, 16, 8 and then
/// 1-7 columns wide — on their operands in place, so each output element is
/// still the one multiply-add chain over k ascending, starting from +0
/// (fused where the target has FMA), that gemm / gemm_nt / gemm_tn compute
/// on either tier, and the bits are exactly theirs. kernel_diff_test and
/// kernel_fuzz_test pin this.

/// c(m,n) = a(m,k) * b(k,n), all row-major and contiguous. gemm_nt's
/// a * b^T is this with b's transpose passed as b.
void gemm_rows(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n);

/// g(m,n) += sum of a_s(k,m)^T * b_s(k,n) over s = steps-1 down to 0, where
/// a_s = a + s*k*m and b_s = b + s*k*n. Each term is gemm_tn's chain and is
/// added to g in that descending order: the same bits as one gemm_tn into
/// scratch plus add_inplace(g, scratch) per s, the way backpropagation
/// through time visits the steps. One exception: where two NaNs of
/// different sign meet in g + term, which one the sum keeps depends on the
/// add's operand order, and add_inplace's may keep the other.
void accumulate_gemm_tn_steps(const float* a, const float* b, float* g, std::size_t steps,
                              std::size_t k, std::size_t m, std::size_t n);

}  // namespace ncnas::tensor
