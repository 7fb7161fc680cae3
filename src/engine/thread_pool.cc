#include "engine/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"

namespace dnsnoise {

namespace {
// The pool the current thread works for and the index of its deque there;
// null and npos on a thread that is no pool's worker.
constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker_index = kNoWorker;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads, obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    tasks_metric_ = &metrics->counter("engine.pool.tasks_submitted");
    steals_metric_ = &metrics->counter("engine.pool.steals");
    queue_depth_max_ = &metrics->gauge("engine.pool.queue_depth_max");
  }
  const std::size_t count = std::max<std::size_t>(threads, 1);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard lock(wait_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::size_t ThreadPool::own_worker() const noexcept {
  return tls_pool == this ? tls_worker_index : kNoWorker;
}

void ThreadPool::submit(std::function<void()> task) {
  const std::size_t here = own_worker();
  const std::size_t target =
      here != kNoWorker
          ? here
          : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                workers_.size();
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(workers_[target]->mutex);
    workers_[target]->queue.push_back(std::move(task));
  }
  {
    // Incrementing under wait_mutex_ pairs with the workers' predicate
    // check, closing the missed-wakeup window between check and wait.
    std::lock_guard lock(wait_mutex_);
    const std::size_t depth =
        queued_.fetch_add(1, std::memory_order_release) + 1;
    if (queue_depth_max_ != nullptr) {
      queue_depth_max_->set_max(static_cast<double>(depth));
    }
  }
  if (tasks_metric_ != nullptr) tasks_metric_->add();
  work_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t index, std::function<void()>& task) {
  // Own deque first, back (LIFO)...
  if (index != kNoWorker) {
    Worker& own = *workers_[index];
    std::lock_guard lock(own.mutex);
    if (!own.queue.empty()) {
      task = std::move(own.queue.back());
      own.queue.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // ...then take from a victim's front (FIFO): a steal if we own a deque.
  const std::size_t first = index != kNoWorker ? index + 1 : 0;
  for (std::size_t offset = 0; offset < workers_.size(); ++offset) {
    const std::size_t at = (first + offset) % workers_.size();
    if (at == index) continue;
    Worker& victim = *workers_[at];
    std::lock_guard lock(victim.mutex);
    if (!victim.queue.empty()) {
      task = std::move(victim.queue.front());
      victim.queue.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      if (index != kNoWorker && steals_metric_ != nullptr) {
        steals_metric_->add();
      }
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(std::function<void()>& task) {
  task();
  task = nullptr;
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last pending task: wake wait_idle() under the lock so the waiter
    // cannot miss the notification between its check and its wait.
    std::lock_guard lock(wait_mutex_);
    idle_cv_.notify_all();
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_pool = this;
  tls_worker_index = index;
  std::function<void()> task;
  for (;;) {
    if (try_pop(index, task)) {
      run_task(task);
      continue;
    }
    std::unique_lock lock(wait_mutex_);
    work_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_acquire) == 0) {
      break;
    }
  }
  tls_pool = nullptr;
  tls_worker_index = kNoWorker;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(wait_mutex_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::help_until_done(const std::atomic<std::size_t>& left) {
  const std::size_t here = own_worker();
  std::function<void()> task;
  while (left.load(std::memory_order_acquire) != 0) {
    if (try_pop(here, task)) {
      run_task(task);
      continue;
    }
    std::unique_lock lock(wait_mutex_);
    work_cv_.wait(lock, [this, &left] {
      return left.load(std::memory_order_acquire) == 0 ||
             queued_.load(std::memory_order_acquire) > 0;
    });
  }
  // A submit's notify_one may have woken this thread instead of a worker;
  // pass it on, or the task would wait for the next one.
  if (queued_.load(std::memory_order_acquire) > 0) work_cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  struct Loop {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> helpers_left{0};
  };
  const std::size_t helpers = std::min(thread_count(), n);
  const auto loop = std::make_shared<Loop>();
  loop->helpers_left.store(helpers, std::memory_order_relaxed);
  const auto drain = [&next = loop->next, &body, n] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([this, loop, drain] {
      drain();
      if (loop->helpers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Under the lock, so a helping waiter cannot miss the wakeup
        // between its check and its wait.
        std::lock_guard lock(wait_mutex_);
        work_cv_.notify_all();
      }
    });
  }
  // The caller joins the index race instead of blocking idle, then runs
  // queued tasks (its own helpers among them) until the helpers are done.
  drain();
  help_until_done(loop->helpers_left);
}

ParallelFor on_pool(ThreadPool* pool) {
  if (pool == nullptr) return {};
  return [pool](std::size_t n, const std::function<void(std::size_t)>& body) {
    pool->parallel_for(n, body);
  };
}

}  // namespace dnsnoise
