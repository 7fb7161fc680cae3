// Concurrency contracts of the observability layer, written to run under
// TSan (labeled `engine` so the sanitizer CI job picks it up): snapshots
// must be safe while shard workers hammer the hot recording paths.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/json_snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dnsnoise::obs {
namespace {

constexpr int kWriters = 4;
constexpr int kOpsPerWriter = 20'000;

TEST(ObsConcurrency, SnapshotWhileRecording) {
  MetricsRegistry registry;
  // Handles resolved up front, like every instrumentation site.
  Counter& counter = registry.counter("test.counter");
  Gauge& gauge = registry.gauge("test.gauge");
  LatencyRecorder& timer = registry.timer("test.timer");
  LatencyRecorder& histogram = registry.histogram("test.histogram");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter.add();
        gauge.set(static_cast<double>(i));
        timer.record(static_cast<std::uint64_t>(i + 1));
        if (i % 64 == 0) histogram.record(static_cast<std::uint64_t>(w + i));
      }
    });
  }
  // Snapshot + serialize concurrently with the writers — a /metrics
  // scrape and a mid-run exporter do exactly this.
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snapshot = registry.snapshot();
      const std::string json = to_json(snapshot);
      EXPECT_FALSE(json.empty());
    }
  });
  // Registration from another thread races the snapshots too.
  std::thread registrar([&] {
    for (int i = 0; i < 100; ++i) {
      registry.counter("test.late" + std::to_string(i)).add();
    }
  });

  for (std::thread& writer : writers) writer.join();
  registrar.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  const MetricsSnapshot final_snapshot = registry.snapshot();
  const MetricSample* sample = final_snapshot.find("test.counter");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count,
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  const MetricSample* timed = final_snapshot.find("test.timer");
  ASSERT_NE(timed, nullptr);
  EXPECT_EQ(timed->count,
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  // Every writer recorded 1..kOpsPerWriter: exact sum and extremes.
  const std::uint64_t per_writer =
      static_cast<std::uint64_t>(kOpsPerWriter) * (kOpsPerWriter + 1) / 2;
  EXPECT_EQ(timed->distribution.sum_ns, kWriters * per_writer);
  EXPECT_EQ(timed->distribution.min_ns, 1u);
  EXPECT_EQ(timed->distribution.max_ns,
            static_cast<std::uint64_t>(kOpsPerWriter));
}

TEST(ObsConcurrency, TraceStreamConcurrentWriters) {
  // The classify fan-out shares the miner stream across pool workers; the
  // ring's claim must stay race-free and lose nothing below capacity.
  TraceCollector collector;  // default ring (32768) > total events below
  TraceStream& stream = collector.stream(TraceStage::kMiner, 0);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 1'000; ++i) {
        stream.instant(TraceOp::kMinerGroupClassify,
                       static_cast<std::uint64_t>(i),
                       "zone.example", static_cast<std::uint64_t>(w));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  EXPECT_EQ(stream.recorded(), static_cast<std::uint64_t>(kWriters) * 1'000);
  EXPECT_EQ(stream.dropped(), 0u);
  EXPECT_EQ(collector.snapshot().events.size(),
            static_cast<std::size_t>(kWriters) * 1'000);
}

}  // namespace
}  // namespace dnsnoise::obs
