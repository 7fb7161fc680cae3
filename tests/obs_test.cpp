// Unit tests for the observability subsystem: metric primitives, registry
// semantics, snapshot ordering, and the stability contract of the JSON
// exporter (same registry state => byte-identical JSON).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/json_snapshot.h"
#include "obs/metrics.h"

namespace dnsnoise::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Counter, ConcurrentAddsAreLossless) {
  Counter counter;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddSetMax) {
  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  gauge.set_max(1.0);  // lower: no effect
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  gauge.set_max(7.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
}

TEST(Timer, TracksCountTotalMinMax) {
  // A registry timer is the one histogram type: count, total and extremes
  // are exact, not bucket estimates.
  MetricsRegistry registry;
  LatencyRecorder& timer = registry.timer("stage.span");
  EXPECT_EQ(timer.snapshot().count, 0u);
  EXPECT_EQ(timer.snapshot().min_ns, 0u);  // empty reports 0, not a sentinel
  timer.record(300);
  timer.record(100);
  timer.record(200);
  const LatencySnapshot snap = timer.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(timer.total_ns(), 600u);
  EXPECT_EQ(snap.sum_ns, 600u);
  EXPECT_EQ(snap.min_ns, 100u);
  EXPECT_EQ(snap.max_ns, 300u);
}

TEST(Histogram, RecordsExactCountSumAndExtremes) {
  MetricsRegistry registry;
  LatencyRecorder& hist = registry.histogram("stage.sizes");
  hist.record(0);
  for (int i = 0; i < 3; ++i) hist.record(10);
  const LatencySnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum_ns, 30u);
  EXPECT_EQ(snap.min_ns, 0u);
  EXPECT_EQ(snap.max_ns, 10u);
  // Small values get exact buckets; zero is a value like any other.
  EXPECT_EQ(snap.counts[LatencyBuckets::index(0)], 1u);
  EXPECT_EQ(snap.counts[LatencyBuckets::index(10)], 3u);
}

TEST(MetricsRegistry, ReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("stage.events");
  Counter& b = registry.counter("stage.events");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(registry.counter("stage.events").value(), 5u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("stage.metric");
  EXPECT_THROW(registry.gauge("stage.metric"), std::logic_error);
  EXPECT_THROW(registry.timer("stage.metric"), std::logic_error);
  EXPECT_THROW(registry.histogram("stage.metric"), std::logic_error);
  // Timers and histograms share a type but not a unit: still distinct.
  registry.timer("stage.span");
  EXPECT_THROW(registry.histogram("stage.span"), std::logic_error);
}

TEST(MetricsRegistry, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 100; ++i) {
        registry.counter("shared.counter").add();
        registry.counter("c" + std::to_string(i)).add();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("shared.counter").value(), 400u);
  EXPECT_EQ(registry.size(), 101u);
}

TEST(MetricsSnapshot, SortedByNameAcrossKinds) {
  MetricsRegistry registry;
  registry.gauge("b.gauge").set(1.0);
  registry.counter("a.counter").add(2);
  registry.timer("c.timer").record(5);
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.samples.size(), 3u);
  EXPECT_EQ(snapshot.samples[0].name, "a.counter");
  EXPECT_EQ(snapshot.samples[1].name, "b.gauge");
  EXPECT_EQ(snapshot.samples[2].name, "c.timer");
  ASSERT_NE(snapshot.find("b.gauge"), nullptr);
  EXPECT_DOUBLE_EQ(snapshot.find("b.gauge")->value, 1.0);
  EXPECT_EQ(snapshot.find("missing"), nullptr);
}

TEST(JsonSnapshot, EmptyRegistryIsValidAndStable) {
  MetricsRegistry registry;
  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"schema\": \"dnsnoise-metrics-v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_EQ(json, to_json(registry.snapshot()));
}

TEST(JsonSnapshot, RoundTripIsByteIdentical) {
  // The satellite stability guarantee: serializing the same registry state
  // twice — and serializing a semantically identical second registry —
  // yields byte-identical JSON.
  const auto populate = [](MetricsRegistry& registry) {
    registry.counter("cluster.server0.cache_hits").add(10);
    registry.counter("cluster.server1.cache_hits").add(20);
    registry.gauge("engine.shard0.wall_seconds").set(0.125);
    registry.timer("miner.features").record(1'000'000);
    for (int i = 0; i < 4; ++i) {
      registry.histogram("cluster.tap_batch_size").record(256);
    }
  };
  MetricsRegistry one;
  MetricsRegistry two;
  populate(one);
  populate(two);
  const std::string json_one = to_json(one.snapshot());
  EXPECT_EQ(json_one, to_json(one.snapshot()));
  EXPECT_EQ(json_one, to_json(two.snapshot()));
}

TEST(JsonSnapshot, SectionsCarryTheRightMetrics) {
  MetricsRegistry registry;
  registry.counter("stage.events").add(7);
  registry.gauge("stage.rate").set(1.5);
  registry.timer("stage.span").record(2'000'000'000);
  registry.histogram("stage.sizes").record(100);
  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"stage.events\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"stage.rate\": 1.5"), std::string::npos);
  // Timers and histograms carry the same fields; timers in seconds.
  EXPECT_NE(json.find("\"stage.span\": {\"count\": 1, "
                      "\"total_seconds\": 2, \"min_seconds\": 2, "
                      "\"max_seconds\": 2, \"p50_seconds\": 2, "
                      "\"p90_seconds\": 2, \"p99_seconds\": 2, "
                      "\"p999_seconds\": 2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"stage.sizes\": {\"count\": 1, \"total\": 100, "
                      "\"min\": 100, \"max\": 100, \"p50\": 100, "
                      "\"p90\": 100, \"p99\": 100, \"p999\": 100}"),
            std::string::npos)
      << json;
}

TEST(JsonSnapshot, MetaPairsAreEmbeddedSorted) {
  MetricsRegistry registry;
  registry.gauge("bench.items_per_sec").set(12.5);
  const std::string json =
      to_json(registry.snapshot(), {{"bench", "micro"}, {"arch", "x86"}});
  const auto arch = json.find("\"arch\": \"x86\"");
  const auto bench = json.find("\"bench\": \"micro\"");
  ASSERT_NE(arch, std::string::npos);
  ASSERT_NE(bench, std::string::npos);
  EXPECT_LT(arch, bench);  // meta map iterates sorted
}

TEST(JsonSnapshot, EscapesControlAndQuoteCharacters) {
  MetricsRegistry registry;
  registry.counter("weird\"name\\with\nnoise").add(1);
  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nnoise"), std::string::npos);
}

TEST(JsonSnapshot, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(0.0), "0");
}

TEST(JsonSnapshot, FormatDoubleHandlesNonFiniteValues) {
  // JSON has no literal for NaN/Inf; NaN becomes null, infinities clamp
  // to the nearest representable finite double so magnitude survives.
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()),
            format_double(std::numeric_limits<double>::max()));
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()),
            format_double(std::numeric_limits<double>::lowest()));
  // The clamped values must still be valid JSON numbers that round-trip.
  const std::string clamped =
      format_double(std::numeric_limits<double>::infinity());
  EXPECT_EQ(std::stod(clamped), std::numeric_limits<double>::max());
  EXPECT_EQ(clamped.find("inf"), std::string::npos);
  EXPECT_EQ(clamped.find("nan"), std::string::npos);
}

TEST(JsonSnapshot, HistogramJsonCarriesPercentiles) {
  MetricsRegistry registry;
  LatencyRecorder& histo = registry.histogram("resolver.upstream_us");
  for (int i = 0; i < 100; ++i) histo.record(100);
  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"p50\": "), std::string::npos);
  EXPECT_NE(json.find("\"p90\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99\": "), std::string::npos);
  EXPECT_NE(json.find("\"p999\": "), std::string::npos);
}

TEST(JsonSnapshot, EstimateQuantileInterpolatesWithinBuckets) {
  MetricsRegistry registry;
  LatencyRecorder& histo = registry.histogram("h");
  for (int i = 0; i < 1000; ++i) histo.record(1008 + i % 16);
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.samples.size(), 1u);
  const LatencySnapshot& d = snapshot.samples[0].distribution;
  // All mass sits in the 1/32-wide bucket [1008, 1024); every quantile
  // must land inside it and inside the recorded range.
  const std::size_t bucket = LatencyBuckets::index(1008);
  ASSERT_EQ(bucket, LatencyBuckets::index(1023));
  double prev = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double est = d.quantile_ns(q);
    EXPECT_GE(est, static_cast<double>(LatencyBuckets::lower_bound(bucket)));
    EXPECT_LT(est, static_cast<double>(LatencyBuckets::upper_bound(bucket)));
    EXPECT_GE(est, 1008.0);
    EXPECT_LE(est, 1023.0);
    EXPECT_GE(est, prev);  // monotone in q
    prev = est;
  }
}

TEST(JsonSnapshot, EstimateQuantileHandlesUnderflowAndEmpty) {
  MetricsRegistry registry;
  registry.histogram("empty");
  // Values below 1 are 0 in an integer recorder: exact bucket 0, no
  // separate underflow bin.
  registry.histogram("sub").record(0);
  const MetricsSnapshot snapshot = registry.snapshot();
  for (const MetricSample& sample : snapshot.samples) {
    EXPECT_EQ(sample.distribution.quantile_ns(0.5), 0.0) << sample.name;
  }
  const std::string json = to_json(snapshot);
  EXPECT_NE(json.find("\"empty\": {\"count\": 0, \"total\": 0, "
                      "\"min\": 0, \"max\": 0, \"p50\": 0"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sub\": {\"count\": 1, \"total\": 0"),
            std::string::npos)
      << json;
}

TEST(JsonSnapshot, WriteJsonFileRoundTrips) {
  MetricsRegistry registry;
  registry.counter("a").add(1);
  const std::string json = to_json(registry.snapshot());
  const std::string path =
      testing::TempDir() + "/dnsnoise_obs_test_snapshot.json";
  ASSERT_TRUE(write_json_file(path, json));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string read_back(json.size() + 16, '\0');
  const std::size_t n = std::fread(read_back.data(), 1, read_back.size(), file);
  std::fclose(file);
  read_back.resize(n);
  EXPECT_EQ(read_back, json);
  std::remove(path.c_str());
}

TEST(JsonSnapshot, WriteJsonFileFailsOnBadPath) {
  EXPECT_FALSE(write_json_file("/nonexistent-dir/x/y.json", "{}\n"));
}

}  // namespace
}  // namespace dnsnoise::obs
