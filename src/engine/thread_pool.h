// Small thread pool for the sharded mining engine: one task stack, one
// mutex and one condition variable.  A mining day hands it a few dozen
// tasks (DESIGN.md §9.1).  parallel_for is the only way in: it queues
// min(workers, n) helper tasks that, with the caller, claim indices from
// one atomic counter, so callers get dynamic load balancing without
// choosing a chunk size.
//
// parallel_for nests: a body may call parallel_for again.  A caller that
// has run out of indices runs queued tasks, newest first, until its
// helpers are done, and sleeps when none is queued, so a loop never waits
// on a helper that sits in the stack behind it.
//
// Contract: tasks must not throw — a throwing task calls std::terminate.
// Callers that can fail (e.g. the engine's shard tasks) catch inside the
// task and report through their own result slot.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/parallel_for.h"

namespace dnsnoise::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace dnsnoise::obs

namespace dnsnoise {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).  A non-null `metrics`
  /// registry (DESIGN.md §10) receives the engine.pool.* scheduler metrics:
  /// tasks submitted and the queue-depth high-water mark.
  explicit ThreadPool(std::size_t threads,
                      obs::MetricsRegistry* metrics = nullptr);

  /// Stops and joins the workers.  No task is queued here: every
  /// parallel_for has returned, and it returns only after its helpers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return threads_.size(); }

  /// Runs body(0..n-1) across the pool and returns when all calls are done.
  /// The calling thread participates, so the pool is never left idle while
  /// the caller blocks.  Indices are claimed dynamically (shared atomic).
  /// Callable from a task, to any depth.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Loop;

  // Guards tasks_, stop_ and each Loop's helpers_left.
  std::mutex mutex_;
  std::condition_variable cv_;  // a task was queued or a loop finished
  std::vector<Loop*> tasks_;    // helper tasks, a stack: newest at back
  bool stop_ = false;
  obs::Counter* tasks_metric_ = nullptr;
  obs::Gauge* queue_depth_max_ = nullptr;
  std::vector<std::thread> threads_;  // last: the workers use the above

  void worker_loop();
  /// Pops the newest helper task and runs it with `lock` released.
  void run_newest(std::unique_lock<std::mutex>& lock);
};

/// `pool`'s parallel_for as a ParallelFor; empty (serial) for a null pool.
ParallelFor on_pool(ThreadPool* pool);

}  // namespace dnsnoise
