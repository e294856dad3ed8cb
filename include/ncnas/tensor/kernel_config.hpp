// Process-wide kernel execution policy for the dense linear-algebra layer.
//
// gemm/gemm_nt/gemm_tn run the cache-blocked kernels once a problem clears
// min_blocked_flops, and the serial reference kernels below it. The default
// (threads == 1) runs them on the calling thread; threads > 1 additionally
// spreads row blocks of the output, and the large elementwise helpers, across
// a dedicated internal ThreadPool (separate from the search driver's pool, so
// nested use cannot deadlock). A search driver already runs evaluations in
// parallel on its own pool, so the default stays serial.
//
// Determinism is a hard design rule, not an aspiration: every output element
// is produced by exactly one task and accumulated in the same (k-ascending)
// order at every thread count, so results are bit-identical across 1..N
// threads and against the reference kernels. kernel_diff_test verifies this
// exhaustively; because results never change, the kernel configuration is —
// like telemetry and checkpointing, and unlike a non-empty fault plan —
// deliberately excluded from nas::config_fingerprint().
#pragma once

#include <cstddef>

namespace ncnas::tensor {

class ThreadPool;

struct KernelConfig {
  /// 1 = blocked kernels on the calling thread (the default); > 1 also
  /// parallelizes across an internal pool of that many threads.
  std::size_t threads = 1;
  /// Rows of the output handled per task (MC). Each task owns its rows
  /// exclusively — the "one writer per output element" half of the rule.
  std::size_t block_rows = 64;
  /// Columns of B processed per cache pass (NC); rounded up internally to a
  /// whole number of packed micro-panels.
  std::size_t block_cols = 256;
  /// m*n*k below which gemm stays on the reference kernels. Purely a
  /// dispatch heuristic: both paths produce identical bits, this only skips
  /// pack/dispatch overhead on tiny problems. SIZE_MAX keeps every gemm on
  /// the reference kernels (the tests' oracle configuration).
  std::size_t min_blocked_flops = 16 * 1024;
  /// Element count below which the elementwise helpers stay serial.
  std::size_t min_parallel_elems = 32 * 1024;

  /// Blocked kernels spread over the internal pool.
  [[nodiscard]] bool pooled() const noexcept { return threads > 1; }

  /// Default config with `threads` kernel threads; 0 picks hardware
  /// concurrency.
  [[nodiscard]] static KernelConfig parallel(std::size_t threads = 0);

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
/// Throws std::invalid_argument on zero threads or zero block sizes.
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

namespace detail {
/// The pool behind pooled kernels, created lazily and resized when the
/// configured thread count changes. Only call when kernel_config().pooled().
[[nodiscard]] ThreadPool& kernel_pool();
}  // namespace detail

}  // namespace ncnas::tensor
