#include "ncnas/tensor/kernel_config.hpp"

#include <atomic>
#include <stdexcept>

namespace ncnas::tensor {

namespace {

// Each field is its own atomic so concurrent *reads* from kernel call sites
// are race-free without a lock on the hot path. Writes are documented as
// phase boundaries only (see kernel_config.hpp), so field-level tearing
// across a concurrent read cannot happen in a correct program.
std::atomic<std::size_t> g_block_rows{64};
std::atomic<std::size_t> g_block_cols{256};
std::atomic<std::size_t> g_min_blocked_flops{16 * 1024};

}  // namespace

const char* KernelConfig::simd_isa() noexcept {
#if defined(__AVX2__) && defined(__FMA__)
  return "avx2";
#elif defined(__aarch64__)
  return "neon";
#else
  return "";
#endif
}

void set_kernel_config(const KernelConfig& cfg) {
  if (cfg.block_rows == 0 || cfg.block_cols == 0) {
    throw std::invalid_argument("set_kernel_config: block sizes must be positive");
  }
  g_block_rows.store(cfg.block_rows);
  g_block_cols.store(cfg.block_cols);
  g_min_blocked_flops.store(cfg.min_blocked_flops);
}

KernelConfig kernel_config() {
  KernelConfig cfg;
  cfg.block_rows = g_block_rows.load();
  cfg.block_cols = g_block_cols.load();
  cfg.min_blocked_flops = g_min_blocked_flops.load();
  return cfg;
}

}  // namespace ncnas::tensor
