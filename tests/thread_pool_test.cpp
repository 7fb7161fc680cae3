// Thread-pool smoke tests.  Deliberately simple and data-race focused so
// they stay meaningful under -fsanitize=thread (DNSNOISE_SANITIZE=thread).
#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace dnsnoise {
namespace {

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
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

TEST(ThreadPoolTest, EmptyParallelForRunsNothing) {
  obs::MetricsRegistry metrics;
  ThreadPool pool(2, &metrics);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  EXPECT_EQ(metrics.counter("engine.pool.tasks_submitted").value(), 0u);
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

TEST(ThreadPoolTest, OneWorkerPoolQueuesOneHelperPerLoop) {
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
  // One helper per loop: 20 outer loops and 160 inner ones.
  EXPECT_EQ(metrics.counter("engine.pool.tasks_submitted").value(), 180u);
}

TEST(ThreadPoolTest, ThreeLevelNestingRunsEveryIndexOnce) {
  // Loops of varied size (empty ones among them) nested three deep, on
  // pools of 1-4 workers: every (i, j, k) runs exactly once, and each
  // loop queues min(workers, n) helpers.
  constexpr std::size_t kMax = 7;
  const auto middle_n = [](std::size_t i) { return (i * 5 + 1) % kMax; };
  const auto inner_n = [](std::size_t i, std::size_t j) {
    return (i + 3 * j) % kMax;
  };
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    obs::MetricsRegistry metrics;
    ThreadPool pool(workers, &metrics);
    std::uint64_t expected_tasks = 0;
    std::vector<std::atomic<int>> hits(kMax * kMax * kMax);
    for (int round = 0; round < 10; ++round) {
      const std::size_t outer_n = kMax - 1 - round % 3;
      expected_tasks += std::min(workers, outer_n);
      for (std::size_t i = 0; i < outer_n; ++i) {
        expected_tasks += std::min(workers, middle_n(i));
        for (std::size_t j = 0; j < middle_n(i); ++j) {
          expected_tasks += std::min(workers, inner_n(i, j));
        }
      }
      pool.parallel_for(outer_n, [&](std::size_t i) {
        pool.parallel_for(middle_n(i), [&, i](std::size_t j) {
          pool.parallel_for(inner_n(i, j), [&, i, j](std::size_t k) {
            hits[(i * kMax + j) * kMax + k].fetch_add(
                1, std::memory_order_relaxed);
          });
        });
      });
      for (std::size_t i = 0; i < kMax; ++i) {
        for (std::size_t j = 0; j < kMax; ++j) {
          for (std::size_t k = 0; k < kMax; ++k) {
            const bool in_loop =
                i < outer_n && j < middle_n(i) && k < inner_n(i, j);
            const std::size_t at = (i * kMax + j) * kMax + k;
            ASSERT_EQ(hits[at].exchange(0), in_loop ? 1 : 0)
                << workers << " workers, round " << round << ", index " << at;
          }
        }
      }
    }
    EXPECT_EQ(metrics.counter("engine.pool.tasks_submitted").value(),
              expected_tasks)
        << workers << " workers";
  }
}

}  // namespace
}  // namespace dnsnoise
