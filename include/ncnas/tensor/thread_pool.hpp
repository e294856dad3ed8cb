// A fixed-size worker pool with a parallel_for helper.
//
// This is the "many KNL nodes" analogue inside one process: the NAS driver
// submits reward-estimation closures and agents' PPO updates here while the
// discrete-event simulator advances virtual time. Results must not depend on
// execution order (each closure is seeded independently).
//
// Ordering guarantee: tasks start in submission order. There is one FIFO
// queue, and a free worker always takes its oldest task. The driver relies
// on this to block inside a task without deadlock. A PPO update may wait
// on another agent's training that is still pending (a shared or agent
// cache hit), and that training was submitted before the update's own
// task. So when a task starts, every task submitted before it has started
// too: each one it waits on is running on another worker or done. Following
// waits back in submission order ends at a task that waits on nothing, so
// every wait ends, at any thread count.
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

  /// Enqueues a task; the future resolves when it has run. Tasks start in
  /// the order they were submitted.
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
