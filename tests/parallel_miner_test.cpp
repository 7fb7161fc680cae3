// Engine determinism and status-channel tests.
//
// The load-bearing contract: shard decomposition is fixed by server_count
// and threads only schedule shards, so threads(1) and threads(4) must
// produce byte-identical captures and identically-ranked findings.
#include "engine/parallel_miner.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "dns/wire.h"
#include "net/udp_client.h"

namespace dnsnoise {
namespace {

ScenarioScale small_scale() {
  ScenarioScale scale;
  scale.queries_per_day = 60'000;
  scale.client_count = 3'000;
  scale.population_scale = 0.5;
  return scale;
}

ClusterConfig small_cluster() {
  ClusterConfig config;
  config.server_count = 4;
  return config;
}

MiningSession small_session(std::size_t threads) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).threads(threads).warmup(false);
  return session;
}

/// The text of a capture's name list, in its order.
std::vector<std::string_view> names_in_order(const DayCapture& capture,
                                             std::span<const NameId> ids) {
  std::vector<std::string_view> names;
  for (const NameId id : ids) names.push_back(capture.names().name(id));
  return names;
}

void expect_same_findings(const std::vector<DisposableZoneFinding>& a,
                          const std::vector<DisposableZoneFinding>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].zone, b[i].zone) << "finding " << i;
    EXPECT_EQ(a[i].depth, b[i].depth) << "finding " << i;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << "finding " << i;
    EXPECT_EQ(a[i].group_size, b[i].group_size) << "finding " << i;
  }
}

TEST(ParallelMinerTest, ThreadCountDoesNotChangeTheCapture) {
  DayCaptureConfig capture_config;
  capture_config.keep_fpdns = true;

  // With warmup on, four threads run warmups and measured days
  // concurrently over the one shared zone population.
  for (const bool warmup : {false, true}) {
    SCOPED_TRACE(warmup ? "warmup on" : "warmup off");
    DayCapture one(capture_config);
    DayCapture four(capture_config);
    const EngineReport r1 = small_session(1)
                                .warmup(warmup)
                                .capture_config(capture_config)
                                .simulate(ScenarioDate::kNov14, one);
    const EngineReport r4 = small_session(4)
                                .warmup(warmup)
                                .capture_config(capture_config)
                                .simulate(ScenarioDate::kNov14, four);
    ASSERT_TRUE(r1.ok()) << r1.error;
    ASSERT_TRUE(r4.ok()) << r4.error;

    EXPECT_EQ(r1.queries, r4.queries);
    EXPECT_EQ(r1.counters.below_answers, r4.counters.below_answers);
    EXPECT_EQ(r1.counters.above_answers, r4.counters.above_answers);
    EXPECT_EQ(r1.counters.stats.hits, r4.counters.stats.hits);
    EXPECT_EQ(r1.counters.stats.misses, r4.counters.stats.misses);

    EXPECT_EQ(one.unique_queried(), four.unique_queried());
    EXPECT_EQ(one.unique_resolved(), four.unique_resolved());
    // Shard-order merging fixes the first-sight order, so the names must
    // agree one by one.
    EXPECT_EQ(names_in_order(one, one.queried_names()),
              names_in_order(four, four.queried_names()));
    EXPECT_EQ(names_in_order(one, one.resolved_names()),
              names_in_order(four, four.resolved_names()));
    EXPECT_EQ(one.tree().black_count(), four.tree().black_count());
    EXPECT_EQ(one.tree().node_count(), four.tree().node_count());
    EXPECT_EQ(one.chr().unique_rrs(), four.chr().unique_rrs());
    for (std::size_t h = 0; h < 24; ++h) {
      EXPECT_EQ(one.below_series().total[h], four.below_series().total[h]);
      EXPECT_EQ(one.above_series().total[h], four.above_series().total[h]);
    }
    // fpDNS entries are stable-sorted by time after the merge, so the two
    // captures must agree entry by entry — the strongest identity check.
    ASSERT_EQ(one.fpdns().size(), four.fpdns().size());
    const auto lhs = one.fpdns().entries();
    const auto rhs = four.fpdns().entries();
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      ASSERT_EQ(lhs[i], rhs[i]) << "fpDNS entry " << i;
    }
  }
}

TEST(ParallelMinerTest, ThreadCountDoesNotChangeTheFindings) {
  const MiningDayResult one = small_session(1).run(ScenarioDate::kNov14);
  const MiningDayResult four = small_session(4).run(ScenarioDate::kNov14);
  ASSERT_TRUE(one.ok()) << one.error;
  ASSERT_TRUE(four.ok()) << four.error;
  EXPECT_GT(one.findings.size(), 0u);
  expect_same_findings(one.findings, four.findings);
  EXPECT_EQ(one.labeled.size(), four.labeled.size());
  EXPECT_EQ(one.evaluation.findings, four.evaluation.findings);
  EXPECT_EQ(one.evaluation.true_positive_findings,
            four.evaluation.true_positive_findings);
  EXPECT_EQ(one.aggregates.unique_queried, four.aggregates.unique_queried);
  EXPECT_EQ(one.aggregates.disposable_queried,
            four.aggregates.disposable_queried);
  EXPECT_EQ(one.aggregates.disposable_rrs, four.aggregates.disposable_rrs);
}

TEST(ParallelMinerTest, EngineFindsDisposableZonesWithPrecision) {
  const MiningDayResult result = small_session(4).run(ScenarioDate::kNov14);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_GT(result.evaluation.findings, 10u);
  EXPECT_GT(result.evaluation.finding_precision(), 0.9);
}

TEST(ParallelMinerTest, ZeroVolumeScenarioReportsEmptyCapture) {
  ScenarioScale scale = small_scale();
  scale.queries_per_day = 0;
  MiningSession session(scale);
  session.cluster(small_cluster()).threads(2).warmup(false);
  const MiningDayResult result = session.run(ScenarioDate::kNov14);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status, MiningDayStatus::kEmptyCapture);
  EXPECT_FALSE(result.error.empty());
  EXPECT_TRUE(result.findings.empty());
}

TEST(ParallelMinerTest, SparseDayReportsEmptyCaptureOnBothRunners) {
  // Ten queries resolve names but label no zone, so there is no model to
  // train: run() and a served day fed the same queries both report an
  // empty day instead of throwing out of training.
  const ScenarioDate date = ScenarioDate::kNov14;
  ScenarioScale scale;
  scale.queries_per_day = 10;
  scale.client_count = 50;
  scale.population_scale = 0.1;
  ClusterConfig cluster;
  cluster.server_count = 2;
  MiningSession session(scale);
  session.cluster(cluster).warmup(false).threads(2);

  const MiningDayResult engine = session.run(date);
  EXPECT_EQ(engine.status, MiningDayStatus::kEmptyCapture);
  EXPECT_FALSE(engine.error.empty());

  session.enable_dns_server(true);
  const std::unique_ptr<ServedMiningDay> day = session.serve(date);
  ASSERT_NE(day, nullptr);
  ASSERT_TRUE(day->ok()) << day->error();
  // Each server's queries in its shard's order, with their timestamps and
  // clients, straight through the frontend's handler.
  const Scenario recorder(date, scale);
  std::vector<std::uint8_t> response;
  std::uint16_t id = 1;
  for (std::size_t shard = 0; shard < cluster.server_count; ++shard) {
    recorder.traffic().run_day_shard(
        scenario_day_index(date), {cluster.server_count, shard},
        [&](SimTime ts, std::uint64_t client, const QuerySpec& query) {
          DnsMessage message = DnsMessage::make_query(
              id++, DomainName(query.qname), query.qtype);
          net::attach_replay_meta(message, {.ts = ts, .client_id = client});
          EXPECT_TRUE(day->frontend().handle_query(
              encode_message(message), net::UdpPeer{0x7f000001, 53}, response,
              WireFrontend::Transport::kUdp));
        });
  }
  const MiningDayResult served = day->finish();
  EXPECT_GT(day->capture().unique_resolved(), 0u);
  EXPECT_EQ(served.status, MiningDayStatus::kEmptyCapture);
  EXPECT_EQ(served.error, engine.error);
}

/// Every day runner refuses `session`'s config before building anything
/// (no Scenario, no socket), with one error text: simulate(), run() and a
/// served day, which reports through ok().
void expect_invalid_config_everywhere(MiningSession& session) {
  DayCapture capture;
  const EngineReport report = session.simulate(ScenarioDate::kNov14, capture);
  EXPECT_EQ(report.status, MiningDayStatus::kInvalidConfig);
  EXPECT_FALSE(report.error.empty());

  const MiningDayResult result = session.run(ScenarioDate::kNov14);
  EXPECT_EQ(result.status, MiningDayStatus::kInvalidConfig);
  EXPECT_EQ(result.error, report.error);

  session.enable_dns_server(true);
  const std::unique_ptr<ServedMiningDay> day =
      session.serve(ScenarioDate::kNov14);
  ASSERT_NE(day, nullptr);
  EXPECT_FALSE(day->ok());
  EXPECT_EQ(day->error(), report.error);
  EXPECT_EQ(day->udp_port(), 0);
  EXPECT_EQ(day->finish().status, MiningDayStatus::kInvalidConfig);
}

TEST(ParallelMinerTest, ZeroThreadsIsInvalidConfig) {
  MiningSession session(small_scale());
  session.cluster(small_cluster()).threads(0);
  expect_invalid_config_everywhere(session);
}

TEST(ParallelMinerTest, ZeroServersIsInvalidConfig) {
  ClusterConfig cluster = small_cluster();
  cluster.server_count = 0;
  MiningSession session = small_session(2);
  session.cluster(cluster);
  expect_invalid_config_everywhere(session);
}

TEST(ParallelMinerTest, InvalidWarmupFractionIsInvalidConfig) {
  // Each fraction would size the warmup day by an undefined cast — a
  // NaN or negative volume, or one past uint64_t — and used to hang the
  // day; it must be refused before any Scenario is built.
  for (const double fraction :
       {-0.5, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 1e30}) {
    SCOPED_TRACE(fraction);
    const auto start = std::chrono::steady_clock::now();
    MiningSession session = small_session(2);
    session.warmup(true, fraction);
    expect_invalid_config_everywhere(session);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
  }
}

TEST(ParallelMinerTest, InvertedTtlClampIsInvalidConfig) {
  // min_ttl > max_ttl makes the cache's TTL clamp undefined; every day
  // runner refuses it before any Scenario is built.
  ClusterConfig cluster = small_cluster();
  cluster.cache.min_ttl = 600;
  cluster.cache.max_ttl = 60;
  MiningSession session = small_session(2);
  session.cluster(cluster);
  DayCapture capture;
  EXPECT_EQ(session.simulate(ScenarioDate::kNov14, capture).error,
            cache_config_error(cluster.cache));
  expect_invalid_config_everywhere(session);
}

}  // namespace
}  // namespace dnsnoise
