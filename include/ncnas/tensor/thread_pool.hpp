// A fixed-size worker pool with a parallel_for helper.
//
// This is the "many KNL nodes" analogue inside one process: the NAS driver
// submits independent reward-estimation closures here while the discrete-event
// simulator advances virtual time. Results must not depend on execution order
// (each closure is seeded independently), so the pool needs no ordering
// guarantees beyond task completion.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace ncnas::tensor {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 -> hardware_concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueues a task; the future resolves when it has run.
  std::future<void> submit(std::function<void()> task);

  /// Blocks until every task submitted so far has completed.
  void wait_idle();

 private:
  void worker_loop();

  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  // Declared last, so the workers are joined before the queue, mutex and
  // condition variables they use are destroyed.
  std::vector<std::jthread> workers_;
};

/// Runs fn(i) for i in [0, n) across the pool, blocking until all complete.
/// Falls back to a serial loop when n is small or the pool has one thread.
void parallel_for(ThreadPool& pool, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace ncnas::tensor
