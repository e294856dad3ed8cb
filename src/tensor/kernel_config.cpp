#include "ncnas/tensor/kernel_config.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "ncnas/tensor/thread_pool.hpp"

namespace ncnas::tensor {

namespace {

// Each field is its own atomic so concurrent *reads* from kernel call sites
// are race-free without a lock on the hot path. Writes are documented as
// phase boundaries only (see kernel_config.hpp), so field-level tearing
// across a concurrent read cannot happen in a correct program.
std::atomic<std::size_t> g_threads{1};
std::atomic<std::size_t> g_block_rows{64};
std::atomic<std::size_t> g_block_cols{256};
std::atomic<std::size_t> g_min_blocked_flops{16 * 1024};
std::atomic<std::size_t> g_min_parallel_elems{32 * 1024};

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // sized g_pool_threads, lazily built
std::size_t g_pool_threads = 0;

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

KernelConfig KernelConfig::parallel(std::size_t threads) {
  KernelConfig cfg;
  cfg.threads =
      threads != 0 ? threads
                   : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return cfg;
}

void set_kernel_config(const KernelConfig& cfg) {
  if (cfg.threads == 0) {
    throw std::invalid_argument("set_kernel_config: threads must be positive");
  }
  if (cfg.block_rows == 0 || cfg.block_cols == 0) {
    throw std::invalid_argument("set_kernel_config: block sizes must be positive");
  }
  g_threads.store(cfg.threads);
  g_block_rows.store(cfg.block_rows);
  g_block_cols.store(cfg.block_cols);
  g_min_blocked_flops.store(cfg.min_blocked_flops);
  g_min_parallel_elems.store(cfg.min_parallel_elems);
}

KernelConfig kernel_config() {
  KernelConfig cfg;
  cfg.threads = g_threads.load();
  cfg.block_rows = g_block_rows.load();
  cfg.block_cols = g_block_cols.load();
  cfg.min_blocked_flops = g_min_blocked_flops.load();
  cfg.min_parallel_elems = g_min_parallel_elems.load();
  return cfg;
}

ThreadPool& detail::kernel_pool() {
  const std::size_t want = std::max<std::size_t>(2, g_threads.load());
  std::scoped_lock lock(g_pool_mutex);
  if (!g_pool || g_pool_threads != want) {
    g_pool.reset();  // join the old workers before spawning replacements
    g_pool = std::make_unique<ThreadPool>(want);
    g_pool_threads = want;
  }
  return *g_pool;
}

}  // namespace ncnas::tensor
