// Unit tests for the event-tracing layer (obs/trace, obs/trace_export) and
// its stage spans (obs/stage_span): ring-buffer semantics, deterministic
// sampling, collector snapshot ordering, one reading for both span sinks,
// and the dnsnoise-trace-v1 exporter's stability contract.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/stage_span.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace dnsnoise::obs {
namespace {

TEST(TraceStream, RecordsSpansAndInstantsInOrder) {
  TraceStream stream(TraceStage::kCluster, 3, 16);
  stream.span(TraceOp::kClusterQuery, 100, 50, "a.example", 1,
              TraceOutcome::kHit, 7);
  stream.instant(TraceOp::kMinerDecolor, 200, "b.example", 9);

  EXPECT_EQ(stream.recorded(), 2u);
  EXPECT_EQ(stream.dropped(), 0u);
  const std::vector<TraceEvent> events = stream.drain_ordered();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].op, TraceOp::kClusterQuery);
  EXPECT_EQ(events[0].ts_ns, 100u);
  EXPECT_EQ(events[0].dur_ns, 50u);
  EXPECT_STREQ(events[0].label, "a.example");
  EXPECT_EQ(events[0].qtype, 1u);
  EXPECT_EQ(events[0].outcome, TraceOutcome::kHit);
  EXPECT_EQ(events[0].id, 7u);
  EXPECT_FALSE(events[0].instant);
  EXPECT_TRUE(events[1].instant);
  EXPECT_EQ(events[1].dur_ns, 0u);
  EXPECT_EQ(events[1].id, 9u);
}

TEST(TraceStream, RingOverwritesOldestAndCountsDrops) {
  TraceStream stream(TraceStage::kMiner, 0, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    stream.instant(TraceOp::kMinerGroupClassify, i);
  }
  EXPECT_EQ(stream.recorded(), 10u);
  EXPECT_EQ(stream.dropped(), 6u);
  const std::vector<TraceEvent> events = stream.drain_ordered();
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving first: timestamps 6, 7, 8, 9.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, 6 + i);
  }
}

TEST(TraceStream, LabelTruncatesSafely) {
  TraceStream stream(TraceStage::kWorkload, 0, 4);
  const std::string long_name(200, 'x');
  stream.span(TraceOp::kWorkloadSample, 0, 1, long_name);
  const std::vector<TraceEvent> events = stream.drain_ordered();
  ASSERT_EQ(events.size(), 1u);
  const std::string label = events[0].label;
  EXPECT_EQ(label.size(), sizeof(TraceEvent{}.label) - 1);
  EXPECT_EQ(label, long_name.substr(0, label.size()));
}

TEST(TraceSampler, FiresOncePerPeriodDeterministically) {
  TraceSampler a(8, 42);
  TraceSampler b(8, 42);
  int fired = 0;
  for (int i = 0; i < 800; ++i) {
    const bool fa = a.sample();
    ASSERT_EQ(fa, b.sample()) << "same seed must fire identically at " << i;
    fired += fa ? 1 : 0;
  }
  EXPECT_EQ(fired, 100);  // exactly 1 in 8
}

TEST(TraceSampler, SeedShiftsThePhase) {
  // Find two seeds with different phases (mix64 % 8 differs).
  TraceSampler a(8, 1);
  TraceSampler b(8, 2);
  std::vector<bool> fa;
  std::vector<bool> fb;
  for (int i = 0; i < 8; ++i) {
    fa.push_back(a.sample());
    fb.push_back(b.sample());
  }
  EXPECT_NE(fa, fb);
}

TEST(TraceSampler, EveryOneAlwaysFires) {
  TraceSampler sampler(1, 123);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(sampler.sample());
}

TEST(TraceCollector, StreamsAreStableAndSnapshotIsSorted) {
  TraceConfig config;
  config.ring_capacity = 8;
  TraceCollector collector(config);
  TraceStream& miner = collector.stream(TraceStage::kMiner, 0);
  TraceStream& cluster1 = collector.stream(TraceStage::kCluster, 1);
  TraceStream& cluster0 = collector.stream(TraceStage::kCluster, 0);
  EXPECT_EQ(&collector.stream(TraceStage::kMiner, 0), &miner);
  EXPECT_EQ(collector.stream_count(), 3u);

  miner.instant(TraceOp::kMinerDecolor, 5);
  cluster1.span(TraceOp::kClusterQuery, 1, 1);
  cluster0.span(TraceOp::kClusterQuery, 2, 1);

  const TraceSnapshot snapshot = collector.snapshot();
  ASSERT_EQ(snapshot.events.size(), 3u);
  // (stage, shard) order: cluster/0, cluster/1, miner/0.
  EXPECT_EQ(snapshot.events[0].stage, TraceStage::kCluster);
  EXPECT_EQ(snapshot.events[0].shard, 0u);
  EXPECT_EQ(snapshot.events[1].stage, TraceStage::kCluster);
  EXPECT_EQ(snapshot.events[1].shard, 1u);
  EXPECT_EQ(snapshot.events[2].stage, TraceStage::kMiner);
  EXPECT_EQ(snapshot.dropped, 0u);
}

TEST(StageSpan, RecordsOneSpanAndIsIdempotent) {
  LatencyRecorder timer;
  {
    StageSpan span(&timer);
    const std::uint64_t ns = span.stop();
    EXPECT_EQ(span.stop(), ns);  // second stop must not double-record
    EXPECT_EQ(timer.total_ns(), ns);
  }
  EXPECT_EQ(timer.snapshot().count, 1u);
}

TEST(StageSpan, NullTimerIsANoOp) {
  StageSpan span(nullptr);
  EXPECT_EQ(span.stop(), 0u);
  EXPECT_EQ(span.stop(), 0u);
}

TEST(StageSpan, NullStreamRecordsNothing) {
  StageSpan span(nullptr, nullptr, nullptr, TraceOp::kMinerMine);
  span.annotate("ignored", 1, TraceOutcome::kHit, 3);
  EXPECT_EQ(span.stop(), 0u);
}

TEST(StageSpan, RecordsOneSpanWithAnnotations) {
  TraceCollector collector;
  TraceStream& stream = collector.stream(TraceStage::kMiner, 0);
  {
    StageSpan span(nullptr, &stream, &collector, TraceOp::kMinerZone);
    span.annotate("ads.example", 0, TraceOutcome::kNone, 2);
  }
  const std::vector<TraceEvent> events = stream.drain_ordered();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].op, TraceOp::kMinerZone);
  EXPECT_STREQ(events[0].label, "ads.example");
  EXPECT_EQ(events[0].id, 2u);
  EXPECT_FALSE(events[0].instant);
}

TEST(StageSpan, LabelSurvivesTheAnnotationString) {
  // annotate must copy: the span records at scope exit, typically after a
  // caller-local label string has been destroyed (regression test for the
  // miner.zone use-after-free).
  TraceCollector collector;
  TraceStream& stream = collector.stream(TraceStage::kMiner, 0);
  {
    StageSpan span(nullptr, &stream, &collector, TraceOp::kMinerZone);
    {
      // Long enough to defeat SSO so the old string_view would dangle
      // into freed heap memory.
      std::string transient(38, 'z');
      span.annotate(transient, 0, TraceOutcome::kNone, 7);
    }
  }
  const std::vector<TraceEvent> events = stream.drain_ordered();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string_view(events[0].label), std::string(38, 'z'));
  EXPECT_EQ(events[0].id, 7u);
}

TEST(StageSpan, BothSinksRecordOneReading) {
  // The registry timer is named after the op, and the timer sample, the
  // trace span and stop()'s result are one clock pair.
  MetricsRegistry registry;
  TraceCollector collector;
  TraceStream& stream = collector.stream(TraceStage::kEngine, 0);
  const std::uint64_t before = collector.now_ns();
  StageSpan span(&registry, &stream, &collector, TraceOp::kEngineMerge);
  const std::uint64_t ns = span.stop();
  const std::uint64_t after = collector.now_ns();

  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.samples.size(), 1u);
  EXPECT_EQ(snapshot.samples[0].name, "engine.merge");
  EXPECT_EQ(snapshot.samples[0].count, 1u);
  EXPECT_EQ(snapshot.samples[0].distribution.sum_ns, ns);
  const std::vector<TraceEvent> events = stream.drain_ordered();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].op, TraceOp::kEngineMerge);
  EXPECT_EQ(events[0].dur_ns, ns);
  EXPECT_GE(events[0].ts_ns, before);
  EXPECT_LE(events[0].ts_ns + events[0].dur_ns, after);
}

TEST(TraceNames, AllOpsAndStagesHaveNames) {
  for (int op = 0; op <= static_cast<int>(TraceOp::kMinerDecolor); ++op) {
    EXPECT_FALSE(trace_op_name(static_cast<TraceOp>(op)).empty()) << op;
  }
  EXPECT_EQ(trace_stage_name(TraceStage::kWorkload), "workload");
  EXPECT_EQ(trace_stage_name(TraceStage::kCluster), "cluster");
  EXPECT_EQ(trace_stage_name(TraceStage::kEngine), "engine");
  EXPECT_EQ(trace_stage_name(TraceStage::kMiner), "miner");
  EXPECT_EQ(trace_op_name(TraceOp::kClusterQuery), "cluster.query");
  EXPECT_EQ(trace_op_name(TraceOp::kMinerDecolor), "miner.decolor");
}

/// A small snapshot exercising every serialization branch: span with all
/// annotations, span with none, and an instant.
TraceSnapshot exporter_fixture() {
  TraceCollector collector;
  collector.stream(TraceStage::kCluster, 1)
      .span(TraceOp::kClusterQuery, 1'234'567, 2'500, "x.ads.example", 1,
            TraceOutcome::kMiss, 42);
  collector.stream(TraceStage::kEngine, 0)
      .span(TraceOp::kEngineMerge, 5'000'000, 1'000'000);
  collector.stream(TraceStage::kMiner, 0)
      .instant(TraceOp::kMinerDecolor, 9'000'000, "ads.example", 17);
  return collector.snapshot();
}

TEST(TraceExport, EmitsChromeTraceEventFields) {
  const std::string json = to_json(exporter_fixture(), {{"run", "test"}});

  EXPECT_NE(json.find("\"schema\": \"dnsnoise-trace-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  // Caller meta merged with the built-in keys.
  EXPECT_NE(json.find("\"run\": \"test\""), std::string::npos);
  EXPECT_NE(json.find("\"sample_every_n\": \"64\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": \"0\""), std::string::npos);
  // Lane naming metadata: pid = stage, tid = shard.
  EXPECT_NE(json.find("{\"name\": \"process_name\", \"ph\": \"M\", "
                      "\"pid\": 2, \"tid\": 0, "
                      "\"args\": {\"name\": \"cluster\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"thread_name\", \"ph\": \"M\", "
                      "\"pid\": 2, \"tid\": 1, "
                      "\"args\": {\"name\": \"shard1\"}}"),
            std::string::npos);
  // Complete span: ph X, microsecond ts/dur with 3 decimals, fixed arg
  // key order label, qtype, outcome, id.
  EXPECT_NE(json.find("{\"name\": \"cluster.query\", \"cat\": \"cluster\", "
                      "\"ph\": \"X\", \"ts\": 1234.567, \"dur\": 2.500, "
                      "\"pid\": 2, \"tid\": 1, \"args\": "
                      "{\"label\": \"x.ads.example\", \"qtype\": 1, "
                      "\"outcome\": \"miss\", \"id\": 42}}"),
            std::string::npos);
  // Annotation-free span omits args entirely.
  EXPECT_NE(json.find("{\"name\": \"engine.merge\", \"cat\": \"engine\", "
                      "\"ph\": \"X\", \"ts\": 5000.000, \"dur\": 1000.000, "
                      "\"pid\": 3, \"tid\": 0}"),
            std::string::npos);
  // Instant: ph i with thread scope, no dur.
  EXPECT_NE(json.find("{\"name\": \"miner.decolor\", \"cat\": \"miner\", "
                      "\"ph\": \"i\", \"s\": \"t\", \"ts\": 9000.000, "
                      "\"pid\": 4, \"tid\": 0, \"args\": "
                      "{\"label\": \"ads.example\", \"id\": 17}}"),
            std::string::npos);
}

TEST(TraceExport, SerializationIsByteStable) {
  const TraceSnapshot snapshot = exporter_fixture();
  EXPECT_EQ(to_json(snapshot), to_json(snapshot));
}

TEST(TraceExport, ReportsDroppedEvents) {
  TraceConfig config;
  config.ring_capacity = 2;
  TraceCollector collector(config);
  TraceStream& stream = collector.stream(TraceStage::kMiner, 0);
  for (int i = 0; i < 5; ++i) {
    stream.instant(TraceOp::kMinerGroupClassify, i);
  }
  const TraceSnapshot snapshot = collector.snapshot();
  EXPECT_EQ(snapshot.dropped, 3u);
  EXPECT_NE(to_json(snapshot).find("\"dropped_events\": \"3\""),
            std::string::npos);
}

}  // namespace
}  // namespace dnsnoise::obs
