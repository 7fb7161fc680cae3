// Thread-pool smoke tests.  Deliberately simple and data-race focused so
// they stay meaningful under -fsanitize=thread (DNSNOISE_SANITIZE=thread).
#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "obs/metrics.h"

namespace dnsnoise {
namespace {

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 500; ++i) {
    pool.submit(
        [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWritesToDisjointSlotsWithoutAtomics) {
  // The engine's usage pattern: each index owns its output slot.
  ThreadPool pool(3);
  constexpr std::size_t kN = 1'000;
  std::vector<std::uint64_t> out(kN, 0);
  pool.parallel_for(kN, [&out](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossRounds) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(100, [&sum](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 10u * (99u * 100u / 2u));
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&pool, &counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
      pool.submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnQuietPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  pool.wait_idle();
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletesParallelFor) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(64, [&counter](std::size_t) {
    counter.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // A body that itself calls parallel_for, on pools where every worker
  // can be inside an outer body at once: a waiting caller must run the
  // helpers queued behind it.  ctest's timeout turns a hang into a failure.
  for (const std::size_t workers : {1u, 2u, 3u}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(16);
    pool.parallel_for(4, [&pool, &hits](std::size_t outer) {
      pool.parallel_for(4, [&hits, outer](std::size_t inner) {
        hits[outer * 4 + inner].fetch_add(1, std::memory_order_relaxed);
      });
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << workers << " workers, index " << i;
    }
  }
}

TEST(ThreadPoolTest, OneWorkerPoolNeverSteals) {
  // With one deque there is nothing to steal: the calling thread's help
  // is not a steal, so the counter stays 0 whatever the schedule.
  obs::MetricsRegistry metrics;
  ThreadPool pool(1, &metrics);
  std::atomic<int> counter{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(8, [&pool, &counter](std::size_t) {
      pool.parallel_for(8, [&counter](std::size_t) {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  EXPECT_EQ(counter.load(), 20 * 64);
  EXPECT_EQ(metrics.counter("engine.pool.steals").value(), 0u);
  // One helper per loop: 20 outer loops and 160 inner ones.
  EXPECT_EQ(metrics.counter("engine.pool.tasks_submitted").value(), 180u);
}

}  // namespace
}  // namespace dnsnoise
