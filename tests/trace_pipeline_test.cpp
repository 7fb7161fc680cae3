// End-to-end tracing: enabling the collector must never change mining
// results, the recorded trace content must be thread-count invariant,
// run() must carry a valid dnsnoise-trace-v1 export covering all four
// pipeline stages, and every stage span must be the same measurement as
// its registry timer.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "engine/parallel_miner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

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

/// Byte-exact serialization of the fields that define a finding; two runs
/// are "identical" iff these strings match.
std::string findings_fingerprint(const MiningDayResult& result) {
  std::string out;
  for (const DisposableZoneFinding& finding : result.findings) {
    out += finding.zone;
    out += '/';
    out += std::to_string(finding.depth);
    out += '/';
    // Bit-exact confidence: any float drift must fail the comparison.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%a", finding.confidence);
    out += buf;
    out += '/';
    out += std::to_string(finding.group_size);
    out += '\n';
  }
  return out;
}

TEST(TracePipeline, DisabledByDefault) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).warmup(false);
  EXPECT_EQ(session.trace(), nullptr);
  const MiningDayResult result = session.run(ScenarioDate::kNov14);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.trace_json.empty());
}

TEST(TracePipeline, TracingDoesNotChangeShardedFindings) {
  MiningSession plain(small_scale());
  plain.cluster(small_cluster()).warmup(false).threads(2);
  const MiningDayResult without = plain.run(ScenarioDate::kNov14);
  ASSERT_TRUE(without.ok()) << without.error;

  MiningSession traced(small_scale());
  traced.cluster(small_cluster()).warmup(false).threads(2).enable_tracing(
      true, 16);
  const MiningDayResult with = traced.run(ScenarioDate::kNov14);
  ASSERT_TRUE(with.ok()) << with.error;

  ASSERT_GT(without.findings.size(), 0u);
  EXPECT_EQ(findings_fingerprint(without), findings_fingerprint(with));
  EXPECT_FALSE(with.trace_json.empty());
}

/// Everything about an event except its wall-clock timing.
using EventKey = std::tuple<obs::TraceStage, std::uint32_t, obs::TraceOp,
                            std::string, std::uint16_t, obs::TraceOutcome,
                            std::uint64_t, bool>;

std::vector<EventKey> event_keys(const obs::TraceSnapshot& snapshot) {
  std::vector<EventKey> keys;
  keys.reserve(snapshot.events.size());
  for (const obs::TraceSnapshotEvent& entry : snapshot.events) {
    keys.emplace_back(entry.stage, entry.shard, entry.event.op,
                      std::string(entry.event.label), entry.event.qtype,
                      entry.event.outcome, entry.event.id,
                      entry.event.instant);
  }
  return keys;
}

TEST(TracePipeline, TraceContentIsThreadCountInvariant) {
  DayCapture capture1;
  MiningSession one(small_scale());
  one.cluster(small_cluster()).warmup(false).threads(1).enable_tracing(true,
                                                                       16);
  ASSERT_TRUE(one.simulate(ScenarioDate::kNov14, capture1).ok());

  DayCapture capture2;
  MiningSession two(small_scale());
  two.cluster(small_cluster()).warmup(false).threads(4).enable_tracing(true,
                                                                       16);
  ASSERT_TRUE(two.simulate(ScenarioDate::kNov14, capture2).ok());

  const std::vector<EventKey> keys1 = event_keys(one.trace()->snapshot());
  const std::vector<EventKey> keys2 = event_keys(two.trace()->snapshot());
  ASSERT_GT(keys1.size(), 0u);
  EXPECT_EQ(keys1, keys2);
}

TEST(TracePipeline, RunCoversAllFourStages) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).warmup(false).threads(2).enable_tracing(
      true, 16);
  ASSERT_NE(session.trace(), nullptr);
  const MiningDayResult result = session.run(ScenarioDate::kNov14);
  ASSERT_TRUE(result.ok()) << result.error;

  bool saw_stage[5] = {};
  const obs::TraceSnapshot snapshot = session.trace()->snapshot();
  for (const obs::TraceSnapshotEvent& entry : snapshot.events) {
    saw_stage[static_cast<int>(entry.stage)] = true;
  }
  EXPECT_TRUE(saw_stage[static_cast<int>(obs::TraceStage::kWorkload)]);
  EXPECT_TRUE(saw_stage[static_cast<int>(obs::TraceStage::kCluster)]);
  EXPECT_TRUE(saw_stage[static_cast<int>(obs::TraceStage::kEngine)]);
  EXPECT_TRUE(saw_stage[static_cast<int>(obs::TraceStage::kMiner)]);

  // The result's export is the schema header plus the same events.
  EXPECT_NE(result.trace_json.find("\"schema\": \"dnsnoise-trace-v1\""),
            std::string::npos);
  EXPECT_NE(result.trace_json.find("\"cluster.query\""), std::string::npos);
  EXPECT_NE(result.trace_json.find("\"engine.shard\""), std::string::npos);
  EXPECT_NE(result.trace_json.find("\"miner.zone\""), std::string::npos);
  EXPECT_NE(result.trace_json.find("\"workload.sample\""), std::string::npos);
}

TEST(TracePipeline, OneMeasurementPerStage) {
  MiningSession session(small_scale());
  session.cluster(small_cluster())
      .warmup(false)
      .threads(2)
      .enable_metrics()
      .enable_tracing(true, 16);
  const MiningDayResult result = session.run(ScenarioDate::kNov14);
  ASSERT_TRUE(result.ok()) << result.error;

  const obs::TraceSnapshot trace = session.trace()->snapshot();
  // A wrapped ring would have lost spans the sums below need.
  ASSERT_EQ(trace.dropped, 0u);
  obs::MetricsRegistry& metrics = *session.metrics();
  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  for (const obs::TraceOp op :
       {obs::TraceOp::kEngineShard, obs::TraceOp::kEngineMerge,
        obs::TraceOp::kEngineClassify, obs::TraceOp::kMinerLabel,
        obs::TraceOp::kMinerTrain, obs::TraceOp::kMinerMine,
        obs::TraceOp::kMinerEvaluate}) {
    const std::string name(obs::trace_op_name(op));
    std::uint64_t spans = 0;
    std::uint64_t span_ns = 0;
    for (const obs::TraceSnapshotEvent& entry : trace.events) {
      if (entry.event.op != op || entry.event.instant) continue;
      ++spans;
      span_ns += entry.event.dur_ns;
    }
    ASSERT_NE(snapshot.find(name), nullptr) << name;
    EXPECT_GT(spans, 0u) << name;
    EXPECT_EQ(spans, snapshot.find(name)->count) << name;
    EXPECT_EQ(span_ns, metrics.timer(name).total_ns()) << name;
  }
  // Each shard's wall gauge is its span's reading, in seconds.
  std::size_t shards = 0;
  for (const obs::TraceSnapshotEvent& entry : trace.events) {
    if (entry.event.op != obs::TraceOp::kEngineShard) continue;
    ++shards;
    const obs::MetricSample* wall = snapshot.find(
        "engine.shard" + std::to_string(entry.shard) + ".wall_seconds");
    ASSERT_NE(wall, nullptr) << entry.shard;
    EXPECT_EQ(wall->value, static_cast<double>(entry.event.dur_ns) / 1e9)
        << entry.shard;
  }
  EXPECT_EQ(shards, small_cluster().server_count);
}

TEST(TracePipeline, QuerySpansCarryCacheOutcomes) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).warmup(false).enable_tracing(true, 16);
  DayCapture capture;
  ASSERT_TRUE(session.simulate(ScenarioDate::kNov14, capture).ok());

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  const obs::TraceSnapshot snapshot = session.trace()->snapshot();
  for (const obs::TraceSnapshotEvent& entry : snapshot.events) {
    if (entry.event.op != obs::TraceOp::kClusterQuery) continue;
    EXPECT_NE(entry.event.label[0], '\0');  // qname annotation
    EXPECT_NE(entry.event.qtype, 0u);
    if (entry.event.outcome == obs::TraceOutcome::kHit) ++hits;
    if (entry.event.outcome == obs::TraceOutcome::kMiss) ++misses;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

TEST(TracePipeline, ReenablingResetsTheCollector) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).warmup(false).enable_tracing();
  DayCapture capture;
  ASSERT_TRUE(session.simulate(ScenarioDate::kNov14, capture).ok());
  EXPECT_GT(session.trace()->stream_count(), 0u);
  session.enable_tracing();  // fresh collector
  EXPECT_EQ(session.trace()->stream_count(), 0u);
  session.enable_tracing(false);
  EXPECT_EQ(session.trace(), nullptr);
}

}  // namespace
}  // namespace dnsnoise
