#include "ncnas/tensor/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace ncnas::tensor {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  std::future<void> fut = pt.get_future();
  {
    std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(pt));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();  // packaged_task traps exceptions into the future
    {
      std::scoped_lock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || pool.thread_count() == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t chunks = std::min(n, pool.thread_count() * 4);
  std::atomic<std::size_t> next{0};
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(pool.submit([&next, n, &fn] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    }));
  }
  // Every chunk reads `next` and `fn` from this frame, so all of them must
  // finish before a failure may unwind it; then the first one is rethrown.
  std::exception_ptr failure;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace ncnas::tensor
