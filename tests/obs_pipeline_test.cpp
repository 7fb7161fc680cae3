// End-to-end observability: a MiningSession run with metrics enabled must
// produce a snapshot with counters/timers from all four pipeline stages
// (workload, cluster, engine, miner), metrics must never change mining
// results, and disabled sessions must carry no registry at all.

#include <gtest/gtest.h>

#include <string_view>

#include "engine/parallel_miner.h"
#include "obs/json_snapshot.h"
#include "obs/metrics.h"

namespace dnsnoise {
namespace {

ScenarioScale small_scale() {
  ScenarioScale scale;
  scale.queries_per_day = 30'000;
  scale.client_count = 1'500;
  scale.population_scale = 0.5;
  return scale;
}

ClusterConfig small_cluster() {
  ClusterConfig cluster;
  cluster.server_count = 4;
  return cluster;
}

bool has_sample_with_prefix(const obs::MetricsSnapshot& snapshot,
                            std::string_view prefix) {
  for (const obs::MetricSample& sample : snapshot.samples) {
    if (sample.name.starts_with(prefix)) return true;
  }
  return false;
}

TEST(ObsPipeline, DisabledByDefault) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).warmup(false);
  EXPECT_EQ(session.metrics(), nullptr);
  const MiningDayResult result = session.run(ScenarioDate::kNov14);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.metrics_json.empty());
}

TEST(ObsPipeline, SnapshotCoversAllFourStages) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).warmup(false).threads(2).enable_metrics();
  ASSERT_NE(session.metrics(), nullptr);

  const MiningDayResult result = session.run(ScenarioDate::kNov14);
  ASSERT_TRUE(result.ok()) << result.error;

  const obs::MetricsSnapshot snapshot = session.metrics()->snapshot();
  EXPECT_TRUE(has_sample_with_prefix(snapshot, "workload."));
  EXPECT_TRUE(has_sample_with_prefix(snapshot, "cluster."));
  EXPECT_TRUE(has_sample_with_prefix(snapshot, "engine."));
  EXPECT_TRUE(has_sample_with_prefix(snapshot, "miner."));

  // The result carries the same snapshot serialized.
  ASSERT_FALSE(result.metrics_json.empty());
  EXPECT_NE(result.metrics_json.find("\"workload.queries_generated\""),
            std::string::npos);
  EXPECT_NE(result.metrics_json.find("\"miner.zones_visited\""),
            std::string::npos);
  // Every stage timer of the day, by count: one engine.shard span per
  // shard, one span per once-a-day stage, one miner.features span per
  // classified group.  A renamed stage fails here instead of silently
  // moving its seconds to another layer.
  const auto timer_count = [&snapshot](std::string_view name) {
    const obs::MetricSample* sample = snapshot.find(name);
    EXPECT_TRUE(sample != nullptr && sample->kind == obs::MetricKind::kTimer)
        << name;
    return sample != nullptr ? sample->count : 0;
  };
  EXPECT_EQ(timer_count("engine.shard"), small_cluster().server_count);
  for (const char* name : {"engine.merge", "engine.classify", "miner.label",
                           "miner.train", "miner.mine", "miner.evaluate"}) {
    EXPECT_EQ(timer_count(name), 1u) << name;
  }
  const obs::MetricSample* groups = snapshot.find("miner.groups_classified");
  ASSERT_NE(groups, nullptr);
  EXPECT_GT(groups->count, 0u);
  EXPECT_EQ(timer_count("miner.features"), groups->count);
  // Tap batches were sized and recorded.
  const obs::MetricSample* batches = snapshot.find("cluster.tap_batch_size");
  ASSERT_NE(batches, nullptr);
  EXPECT_GT(batches->count, 0u);
}

TEST(ObsPipeline, WorkloadCountersMatchEngineReport) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).warmup(false).enable_metrics();
  DayCapture capture;
  const EngineReport report = session.simulate(ScenarioDate::kNov14, capture);
  ASSERT_TRUE(report.ok()) << report.error;

  obs::MetricsRegistry& metrics = *session.metrics();
  // Valid-name queries reach the cluster; the generator counts everything
  // it emits, so generated >= fed and every fed query was answered below.
  EXPECT_GE(metrics.counter("workload.queries_generated").value(),
            report.queries);
  EXPECT_EQ(metrics.counter("cluster.below_answers").value(), report.queries);
  // One run_day_shard call per shard.
  EXPECT_EQ(metrics.counter("workload.days_generated").value(),
            report.shard_count);
}

TEST(ObsPipeline, PerServerCountersSumToClusterTotals) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).warmup(false).enable_metrics();
  DayCapture capture;
  const EngineReport report = session.simulate(ScenarioDate::kNov14, capture);
  ASSERT_TRUE(report.ok()) << report.error;

  obs::MetricsRegistry& metrics = *session.metrics();
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t server = 0; server < report.shard_count; ++server) {
    const std::string prefix = "cluster.server" + std::to_string(server);
    hits += metrics.counter(prefix + ".cache_hits").value();
    misses += metrics.counter(prefix + ".cache_misses").value();
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(hits + misses, report.queries);
  EXPECT_EQ(misses, report.counters.above_answers);
}

TEST(ObsPipeline, ShardTimerCountsShards) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).warmup(false).threads(2).enable_metrics();
  DayCapture capture;
  const EngineReport report = session.simulate(ScenarioDate::kNov14, capture);
  ASSERT_TRUE(report.ok()) << report.error;

  const obs::MetricsSnapshot snapshot = session.metrics()->snapshot();
  const obs::MetricSample* shard = snapshot.find("engine.shard");
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->count, report.shard_count);
  const obs::MetricSample* merge = snapshot.find("engine.merge");
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(merge->count, 1u);
  // Per-shard wall gauges exist for every shard.
  for (std::size_t i = 0; i < report.shard_count; ++i) {
    EXPECT_NE(snapshot.find("engine.shard" + std::to_string(i) +
                            ".wall_seconds"),
              nullptr);
  }
}

TEST(ObsPipeline, MetricsDoNotChangeFindings) {
  MiningSession plain(small_scale());
  plain.cluster(small_cluster()).warmup(false);
  const MiningDayResult without = plain.run(ScenarioDate::kNov14);
  ASSERT_TRUE(without.ok()) << without.error;

  MiningSession instrumented(small_scale());
  instrumented.cluster(small_cluster()).warmup(false).enable_metrics();
  const MiningDayResult with = instrumented.run(ScenarioDate::kNov14);
  ASSERT_TRUE(with.ok()) << with.error;

  ASSERT_EQ(without.findings.size(), with.findings.size());
  for (std::size_t i = 0; i < without.findings.size(); ++i) {
    EXPECT_EQ(without.findings[i].zone, with.findings[i].zone);
    EXPECT_EQ(without.findings[i].depth, with.findings[i].depth);
    EXPECT_DOUBLE_EQ(without.findings[i].confidence,
                     with.findings[i].confidence);
  }
}

TEST(ObsPipeline, ReenablingResetsTheRegistry) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).warmup(false).enable_metrics();
  DayCapture capture;
  ASSERT_TRUE(session.simulate(ScenarioDate::kNov14, capture).ok());
  EXPECT_GT(session.metrics()->size(), 0u);
  session.enable_metrics();  // fresh registry
  EXPECT_EQ(session.metrics()->size(), 0u);
  session.enable_metrics(false);
  EXPECT_EQ(session.metrics(), nullptr);
}

}  // namespace
}  // namespace dnsnoise
