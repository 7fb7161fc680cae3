// Thread-pool smoke tests.  Deliberately simple and data-race focused so
// they stay meaningful under -fsanitize=thread (DNSNOISE_SANITIZE=thread).
#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

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

}  // namespace
}  // namespace dnsnoise
