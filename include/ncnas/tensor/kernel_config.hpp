// Process-wide kernel execution policy for the dense linear-algebra layer.
//
// gemm/gemm_nt/gemm_tn run the cache-blocked kernels once a problem clears
// min_blocked_flops, and the serial reference kernels below it. Every kernel
// runs on the calling thread: a search already trains many candidates at
// once on the driver's pool, each training on one worker, and splitting one
// training's kernels across more threads made every benchmark workload
// slower. Kernels may be called concurrently from any number of threads;
// each caller's scratch lives in its own per-thread arena.
//
// Determinism is a hard design rule, not an aspiration: every output element
// is accumulated in the same (k-ascending) order on either tier and for any
// block geometry, so results are bit-identical against the reference
// kernels. kernel_diff_test verifies this exhaustively; because results
// never change, the kernel configuration is — like telemetry and
// checkpointing, and unlike a non-empty fault plan — deliberately excluded
// from nas::config_fingerprint().
#pragma once

#include <cstddef>

namespace ncnas::tensor {

struct KernelConfig {
  /// Rows of the output handled per block (MC).
  std::size_t block_rows = 64;
  /// Columns of B processed per cache pass (NC); rounded up internally to a
  /// whole number of packed micro-panels.
  std::size_t block_cols = 256;
  /// m*n*k below which gemm stays on the reference kernels. Purely a
  /// dispatch heuristic: both paths produce identical bits, this only skips
  /// pack/dispatch overhead on tiny problems. SIZE_MAX keeps every gemm on
  /// the reference kernels (the tests' oracle configuration).
  std::size_t min_blocked_flops = 16 * 1024;

  /// Compile-time label of the vector ISA the kernels were built for:
  /// "avx2" (x86-64 with AVX2 and FMA), "neon" (aarch64), or "". Whether the
  /// compiler contracts a*b+c into a fused multiply-add decides the exact
  /// bits every gemm produces, so result digests pinned on one machine are
  /// only comparable on a build with the same label; benchmarks key their
  /// pinned digests on it.
  [[nodiscard]] static const char* simd_isa() noexcept;
};

/// Installs `cfg` process-wide. Fields are individually atomic, but the
/// switch is not transactional: do not call while kernels are executing on
/// other threads (set it at startup, or between phases, as the tests do).
/// Throws std::invalid_argument on zero block sizes.
void set_kernel_config(const KernelConfig& cfg);

/// The currently installed policy.
[[nodiscard]] KernelConfig kernel_config();

/// RAII scoped override for tests and benches; restores on destruction.
class KernelConfigGuard {
 public:
  explicit KernelConfigGuard(const KernelConfig& cfg) : prev_(kernel_config()) {
    set_kernel_config(cfg);
  }
  ~KernelConfigGuard() { set_kernel_config(prev_); }

  KernelConfigGuard(const KernelConfigGuard&) = delete;
  KernelConfigGuard& operator=(const KernelConfigGuard&) = delete;

 private:
  KernelConfig prev_;
};

}  // namespace ncnas::tensor
