#include "engine/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"

namespace dnsnoise {

/// One parallel_for call, on its caller's stack.  Each of its helper tasks
/// is a pointer to it on the pool's stack.
struct ThreadPool::Loop {
  const std::function<void(std::size_t)>& body;
  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::size_t helpers_left;  // guarded by the pool's mutex_

  /// Claims and runs indices until none is left; a throwing body
  /// terminates here, before it could unwind the caller past its helpers.
  void drain() noexcept {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads, obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    tasks_metric_ = &metrics->counter("engine.pool.tasks_submitted");
    queue_depth_max_ = &metrics->gauge("engine.pool.queue_depth_max");
  }
  const std::size_t count = std::max<std::size_t>(threads, 1);
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::run_newest(std::unique_lock<std::mutex>& lock) {
  Loop& loop = *tasks_.back();
  tasks_.pop_back();
  lock.unlock();
  loop.drain();
  lock.lock();
  // The loop's caller may return as soon as this reaches zero: `loop` is
  // not touched again.
  if (--loop.helpers_left == 0) cv_.notify_all();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
    if (tasks_.empty()) return;
    run_newest(lock);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t helpers = std::min(thread_count(), n);
  Loop loop{body, n, {}, helpers};
  {
    std::lock_guard lock(mutex_);
    tasks_.insert(tasks_.end(), helpers, &loop);
    if (queue_depth_max_ != nullptr) {
      queue_depth_max_->set_max(static_cast<double>(tasks_.size()));
    }
  }
  if (tasks_metric_ != nullptr) tasks_metric_->add(helpers);
  cv_.notify_all();
  // The caller joins the index race instead of blocking idle, then runs
  // queued tasks, newest first, until its helpers are done.
  loop.drain();
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return loop.helpers_left == 0 || !tasks_.empty(); });
    if (loop.helpers_left == 0) return;
    run_newest(lock);
  }
}

ParallelFor on_pool(ThreadPool* pool) {
  if (pool == nullptr) return {};
  return [pool](std::size_t n, const std::function<void(std::size_t)>& body) {
    pool->parallel_for(n, body);
  };
}

}  // namespace dnsnoise
