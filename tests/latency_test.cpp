// obs/latency: bucket math, quantile edge cases, shard-merge determinism,
// the slow-query log, and (under TSan via the engine label) concurrent
// record/snapshot safety.  Also pins the edge cases of registry
// histograms, which are the same recorder.
#include "obs/latency.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/rng.h"

namespace dnsnoise::obs {
namespace {

using Buckets = LatencyBuckets;

TEST(LatencyBuckets, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < Buckets::kSubCount; ++v) {
    EXPECT_EQ(Buckets::index(v), v);
    EXPECT_EQ(Buckets::lower_bound(v), v);
    EXPECT_EQ(Buckets::upper_bound(v), v + 1);
  }
}

TEST(LatencyBuckets, IndexIsMonotoneAndConsistentWithBounds) {
  // Walk powers of two with offsets; every value must land in a bucket
  // whose [lower, upper) range contains it, and indices must not decrease.
  std::size_t prev = 0;
  for (unsigned e = 0; e < Buckets::kMaxExponent; ++e) {
    for (const std::uint64_t off : {std::uint64_t{0}, std::uint64_t{1}}) {
      const std::uint64_t v = (std::uint64_t{1} << e) + off;
      const std::size_t i = Buckets::index(v);
      EXPECT_GE(i, prev) << "v=" << v;
      EXPECT_LE(Buckets::lower_bound(i), v) << "v=" << v;
      EXPECT_GT(Buckets::upper_bound(i), v) << "v=" << v;
      prev = i;
    }
  }
}

TEST(LatencyBuckets, RelativeWidthIsBounded) {
  // The HDR guarantee: above the exact range, width / lower <= 1/32.
  for (std::size_t i = Buckets::kSubCount; i < Buckets::kBucketCount; ++i) {
    const double lo = static_cast<double>(Buckets::lower_bound(i));
    const double width =
        static_cast<double>(Buckets::upper_bound(i) - Buckets::lower_bound(i));
    EXPECT_LE(width / lo, 1.0 / 32 + 1e-12) << "bucket " << i;
  }
}

TEST(LatencyBuckets, HugeValuesClampToTopBucket) {
  EXPECT_EQ(Buckets::index(~std::uint64_t{0}), Buckets::kBucketCount - 1);
  EXPECT_EQ(Buckets::index(std::uint64_t{1} << Buckets::kMaxExponent),
            Buckets::kBucketCount - 1);
}

TEST(LatencySnapshot, EmptyQuantilesAreZero) {
  LatencyRecorder recorder;
  const LatencySnapshot snap = recorder.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.quantile_ns(0.0), 0.0);
  EXPECT_EQ(snap.quantile_ns(0.5), 0.0);
  EXPECT_EQ(snap.quantile_ns(1.0), 0.0);
  EXPECT_EQ(snap.mean_ns(), 0.0);
}

TEST(LatencySnapshot, SingleValueCollapsesEveryQuantile) {
  LatencyRecorder recorder;
  recorder.shard(0).record(17);  // exact bucket: quantiles are exact
  const LatencySnapshot snap = recorder.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min_ns, 17u);
  EXPECT_EQ(snap.max_ns, 17u);
  for (const double q : {0.0, 0.001, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(snap.quantile_ns(q), 17.0) << "q=" << q;
  }
}

TEST(LatencySnapshot, ExtremeQuantilesReturnTrackedMinMax) {
  LatencyRecorder recorder;
  auto& shard = recorder.shard(0);
  shard.record(100);
  shard.record(1'000'000);
  shard.record(50'000'000);
  const LatencySnapshot snap = recorder.snapshot();
  EXPECT_EQ(snap.quantile_ns(0.0), 100.0);
  EXPECT_EQ(snap.quantile_ns(-1.0), 100.0);
  EXPECT_EQ(snap.quantile_ns(1.0), 50'000'000.0);
  EXPECT_EQ(snap.quantile_ns(2.0), 50'000'000.0);
  // Interior quantiles stay within the tracked extremes.
  for (const double q : {0.01, 0.5, 0.99}) {
    EXPECT_GE(snap.quantile_ns(q), 100.0);
    EXPECT_LE(snap.quantile_ns(q), 50'000'000.0);
  }
}

TEST(LatencySnapshot, QuantileErrorIsBoundedByBucketWidth) {
  LatencyRecorder recorder;
  auto& shard = recorder.shard(0);
  Rng rng(7);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10'000; ++i) {
    values.push_back(50 + rng.below(1'000'000));
  }
  for (const std::uint64_t v : values) shard.record(v);
  std::sort(values.begin(), values.end());
  const LatencySnapshot snap = recorder.snapshot();
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double exact = static_cast<double>(values[rank - 1]);
    const double est = snap.quantile_ns(q);
    // 1/32 bucket width plus interpolation slack.
    EXPECT_NEAR(est, exact, exact * (2.0 / 32) + 1.0) << "q=" << q;
  }
}

TEST(LatencySnapshot, SaturationIsCountedAndClamped) {
  LatencyRecorder recorder;
  recorder.shard(0).record(std::uint64_t{1} << 60);
  const LatencySnapshot snap = recorder.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.saturated, 1u);
  EXPECT_EQ(snap.max_ns, std::uint64_t{1} << 60);
}

TEST(LatencyRecorder, ShardedMergeMatchesSingleShard) {
  // The determinism contract: counts depend only on the recorded value
  // multiset, never on which shard recorded what.
  Rng rng(42);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 50'000; ++i) values.push_back(rng.below(10'000'000));

  LatencyRecorder one(1);
  LatencyRecorder eight(8);
  for (std::size_t i = 0; i < values.size(); ++i) {
    one.shard(0).record(values[i]);
    eight.shard(i % 8).record(values[i]);
  }
  const LatencySnapshot a = one.snapshot();
  const LatencySnapshot b = eight.snapshot();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum_ns, b.sum_ns);
  EXPECT_EQ(a.min_ns, b.min_ns);
  EXPECT_EQ(a.max_ns, b.max_ns);
  EXPECT_EQ(a.quantile_ns(0.99), b.quantile_ns(0.99));
}

TEST(LatencyRecorder, ThreadShardRecordingIsExactAfterJoin) {
  // Engine-labeled so the TSan CI lane exercises the concurrent path.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  LatencyRecorder recorder(4);  // fewer shards than threads: forced sharing
  std::atomic<bool> stop{false};
  std::thread reader([&recorder, &stop]() {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)recorder.snapshot();  // racing reads must stay well-defined
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t]() {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        recorder.thread_shard().record(rng.below(1'000'000));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(recorder.snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyRecorder, ResetZeroesEverything) {
  LatencyRecorder recorder(2);
  recorder.shard(0).record(100);
  recorder.shard(1).record(200);
  recorder.reset();
  const LatencySnapshot snap = recorder.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.min_ns, 0u);
  EXPECT_EQ(snap.max_ns, 0u);
}

TEST(LatencySnapshot, DeltaSinceIsolatesNewCounts) {
  LatencyRecorder recorder;
  recorder.shard(0).record(100);
  recorder.shard(0).record(200);
  const LatencySnapshot first = recorder.snapshot();
  recorder.shard(0).record(300);
  const LatencySnapshot second = recorder.snapshot();
  const LatencySnapshot delta = second.delta_since(first);
  EXPECT_EQ(delta.count, 1u);
  EXPECT_EQ(delta.sum_ns, 300u);
  EXPECT_EQ(delta.counts[LatencyBuckets::index(300)], 1u);
}

TEST(LatencyRecorder, RebuiltRecorderNeverInheritsAStaleShard) {
  // A recorder built where a destroyed one lived must hand a long-lived
  // thread its own shard, never the freed one (heap-use-after-free under
  // ASan when shard bindings are cached per recorder address).
  std::optional<LatencyRecorder> slot;
  slot.emplace(2);
  slot->thread_shard().record(5);
  slot.reset();
  slot.emplace(2);
  slot->thread_shard().record(7);
  const LatencySnapshot snap = slot->snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min_ns, 7u);
  EXPECT_EQ(snap.max_ns, 7u);
}

TEST(LatencyRecorder, SharedShardKeepsExtremesExact) {
  // One shard, many writers: counts and sums are fetch_adds, and the CAS
  // on min/max keeps the extremes exact under contention.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10'000;
  LatencyRecorder recorder(1);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t]() {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        recorder.record(1 + i * kThreads + static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& w : writers) w.join();
  const LatencySnapshot snap = recorder.snapshot();
  const std::uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(snap.count, n);
  EXPECT_EQ(snap.sum_ns, n * (n + 1) / 2);
  EXPECT_EQ(recorder.total_ns(), n * (n + 1) / 2);
  EXPECT_EQ(snap.min_ns, 1u);
  EXPECT_EQ(snap.max_ns, n);
}

TEST(LatencySnapshot, RegistryHistogramIsTheRecorder) {
  // Registry histograms keep the recorder's exact count and 1/32 buckets
  // all the way to the snapshot the exporters read.
  MetricsRegistry registry;
  LatencyRecorder& hist = registry.histogram("test.latency_ns");
  for (std::uint64_t i = 0; i < 1000; ++i) hist.record(10'000 + i);
  const MetricsSnapshot snap = registry.snapshot();
  const MetricSample* sample = snap.find("test.latency_ns");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, 1000u);
  EXPECT_EQ(sample->distribution.counts, hist.snapshot().counts);
  // Exact rank 500 is 10'499; the estimate stays within 1/32 of it.
  EXPECT_NEAR(sample->distribution.quantile_ns(0.5), 10'499.0,
              10'499.0 / 32);
}

// --- registry-histogram quantile edge cases --------------------------------

TEST(EstimateQuantile, EmptyHistogramIsZero) {
  MetricsRegistry registry;
  registry.histogram("h");
  const MetricsSnapshot snap = registry.snapshot();
  const MetricSample* sample = snap.find("h");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->distribution.quantile_ns(0.5), 0.0);
  const LatencyPercentiles p = sample->distribution.percentiles_seconds();
  EXPECT_EQ(p.p50, 0.0);
  EXPECT_EQ(p.p999, 0.0);
}

TEST(EstimateQuantile, OutOfRangeQClampsToMinMax) {
  MetricsRegistry registry;
  LatencyRecorder& hist = registry.histogram("h");
  hist.record(123);
  hist.record(4567);
  const MetricsSnapshot snap = registry.snapshot();
  const MetricSample* sample = snap.find("h");
  ASSERT_NE(sample, nullptr);
  const LatencySnapshot& d = sample->distribution;
  EXPECT_EQ(d.quantile_ns(0.0), 123.0);
  EXPECT_EQ(d.quantile_ns(-0.5), 123.0);
  EXPECT_EQ(d.quantile_ns(1.0), 4567.0);
  EXPECT_EQ(d.quantile_ns(1.5), 4567.0);
}

TEST(EstimateQuantile, SingleBucketBoundsEveryQuantile) {
  MetricsRegistry registry;
  LatencyRecorder& hist = registry.histogram("h");
  for (int i = 0; i < 100; ++i) hist.record(123);
  const MetricsSnapshot snap = registry.snapshot();
  const MetricSample* sample = snap.find("h");
  ASSERT_NE(sample, nullptr);
  const std::size_t bucket = LatencyBuckets::index(123);
  for (const double q : {0.001, 0.5, 0.999}) {
    const double est = sample->distribution.quantile_ns(q);
    EXPECT_GE(est, static_cast<double>(LatencyBuckets::lower_bound(bucket)))
        << "q=" << q;
    EXPECT_LT(est, static_cast<double>(LatencyBuckets::upper_bound(bucket)))
        << "q=" << q;
  }
}

// --- slow-query log --------------------------------------------------------

SlowQueryEntry make_entry(std::uint64_t total_ns, const std::string& qname) {
  SlowQueryEntry entry;
  entry.total_ns = total_ns;
  entry.decode_ns = total_ns / 4;
  entry.cluster_ns = total_ns / 2;
  entry.encode_ns = total_ns / 4;
  entry.qname = qname;
  return entry;
}

TEST(SlowQueryLog, KeepsTheSlowestAndEvictsTheFastest) {
  SlowQueryLog log(3);
  EXPECT_TRUE(log.would_admit(1));  // empty log admits anything positive
  log.maybe_add(make_entry(100, "a."));
  log.maybe_add(make_entry(300, "b."));
  log.maybe_add(make_entry(200, "c."));
  // Full: threshold is the current floor (100); slower queries displace it.
  EXPECT_FALSE(log.would_admit(100));
  log.maybe_add(make_entry(50, "too-fast."));
  log.maybe_add(make_entry(400, "d."));
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].qname, "d.");  // slowest first
  EXPECT_EQ(entries[1].qname, "b.");
  EXPECT_EQ(entries[2].qname, "c.");
}

TEST(SlowQueryLog, JsonCarriesSchemaAndBreakdown) {
  SlowQueryLog log(2);
  log.maybe_add(make_entry(1000, "slow.example."));
  const std::string json = log.to_json();
  EXPECT_NE(json.find("dnsnoise-slowlog-v1"), std::string::npos);
  EXPECT_NE(json.find("slow.example."), std::string::npos);
  EXPECT_NE(json.find("\"cluster_ns\": 500"), std::string::npos);
}

TEST(SlowQueryLog, JsonEntryCapKeepsTheWorstN) {
  SlowQueryLog log(8);
  for (std::uint64_t i = 1; i <= 8; ++i) {
    log.maybe_add(make_entry(i * 100, "q" + std::to_string(i) + "."));
  }
  // Cap 2: only the two slowest entries survive, worst first.
  const std::string capped = log.to_json(2);
  EXPECT_NE(capped.find("\"q8.\""), std::string::npos);
  EXPECT_NE(capped.find("\"q7.\""), std::string::npos);
  EXPECT_EQ(capped.find("\"q6.\""), std::string::npos);
  // Cap 0 and cap >= size both emit everything.
  EXPECT_EQ(log.to_json(0), log.to_json(64));
  EXPECT_NE(log.to_json(0).find("\"q1.\""), std::string::npos);
}

TEST(SlowQueryLog, ClearDropsEntriesAndReopensAdmission) {
  SlowQueryLog log(2);
  log.maybe_add(make_entry(100, "a."));
  log.maybe_add(make_entry(300, "b."));
  EXPECT_FALSE(log.would_admit(50));  // full: floor is 100
  log.clear();
  EXPECT_TRUE(log.entries().empty());
  EXPECT_TRUE(log.would_admit(1));  // threshold back to zero
  log.maybe_add(make_entry(10, "after."));
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].qname, "after.");
}

TEST(SlowQueryLog, ConcurrentAddsStayBounded) {
  SlowQueryLog log(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log, t]() {
      for (int i = 0; i < 5'000; ++i) {
        log.maybe_add(make_entry(
            static_cast<std::uint64_t>(t * 5'000 + i + 1), "q."));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 8u);
  // The global maximum always survives.
  EXPECT_EQ(entries[0].total_ns, 20'000u);
}

}  // namespace
}  // namespace dnsnoise::obs
