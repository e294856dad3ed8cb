// The kernel execution policy of the dense linear-algebra layer, fixed at
// compile time.
//
// gemm/gemm_nt/gemm_tn run the cache-blocked kernels once a problem clears
// min_blocked_flops, and the serial reference kernels below it; the tier
// follows from the problem size alone. Every kernel runs on the calling
// thread: a search already trains many candidates at once on the driver's
// pool, each training on one worker, and splitting one training's kernels
// across more threads made every benchmark workload slower. Kernels may be
// called concurrently from any number of threads; each caller's scratch
// lives in its own per-thread arena.
//
// Determinism is a hard design rule, not an aspiration: every output element
// is accumulated in the same (k-ascending) order on either tier, so results
// are bit-identical against the reference kernels. kernel_diff_test and
// kernel_fuzz_test check it on shapes around each constant below. With no
// runtime knob there is nothing here for nas::config_fingerprint() to hash.
#pragma once

#include <cstddef>

namespace ncnas::tensor {

struct KernelConfig {
  /// Rows of the output handled per block (MC).
  static constexpr std::size_t block_rows = 64;
  /// Columns of B processed per cache pass (NC), a whole number of packed
  /// 32-column micro-panels.
  static constexpr std::size_t block_cols = 256;
  /// m*n*k below which gemm stays on the reference kernels. Purely a
  /// dispatch heuristic: both paths produce identical bits, this only skips
  /// pack/dispatch overhead on tiny problems.
  static constexpr std::size_t min_blocked_flops = 16 * 1024;

  /// Compile-time label of the vector ISA the kernels were built for:
  /// "avx2" (x86-64 with AVX2 and FMA), "neon" (aarch64), or "". Whether the
  /// compiler contracts a*b+c into a fused multiply-add decides the exact
  /// bits every gemm produces, so result digests pinned on one machine are
  /// only comparable on a build with the same label; benchmarks key their
  /// pinned digests on it. Out of line so the label describes the flags the
  /// kernels were compiled with, not the caller's.
  [[nodiscard]] static const char* simd_isa() noexcept;
};

}  // namespace ncnas::tensor
