// Traffic introspection plane wired into the engine (PipelineOptions::
// sketch / MiningSession::enable_traffic_sketch): the determinism
// contract (threads(N) serves byte-identical dnsnoise-traffic-v1 to
// threads(1), and scrapes while the shards feed change nothing), the obs
// contract (findings byte-identical with the plane on or off), a served
// day measuring what the engine day measures, the mined-zones ->
// live-classifier handoff, and the live GET /traffic + traffic.* gauge
// scrape.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "dns/wire.h"
#include "engine/parallel_miner.h"
#include "net/udp_client.h"
#include "obs/metrics.h"
#include "obs/sketch/traffic_sketch.h"
#include "obs/telemetry_server.h"

namespace dnsnoise {
namespace {

/// One blocking HTTP exchange against 127.0.0.1:port; body only.
std::string http_body(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? response : response.substr(split + 4);
}

ScenarioScale small_scale() {
  ScenarioScale scale;
  scale.queries_per_day = 25'000;
  scale.client_count = 1'200;
  scale.population_scale = 0.5;
  return scale;
}

ClusterConfig sharded_cluster() {
  ClusterConfig cluster;
  cluster.server_count = 4;
  return cluster;
}

TEST(TrafficPlaneEngine, ThreadCountNeverChangesTheExport) {
  // Shard decomposition follows server_count; threads only schedule.
  // The merged dnsnoise-traffic-v1 document must be byte-identical.
  std::string exports[2];
  const std::size_t thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    MiningSession session(small_scale());
    session.cluster(sharded_cluster())
        .warmup(false)
        .threads(thread_counts[i])
        .enable_traffic_sketch();
    ASSERT_NE(session.traffic_sketch(), nullptr);
    DayCapture capture;
    const EngineReport report =
        session.simulate(ScenarioDate::kNov14, capture);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_EQ(session.traffic_sketch()->shard_count(), 4u);
    exports[i] = session.traffic_sketch()->to_json();
  }
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_NE(exports[0].find("\"schema\": \"dnsnoise-traffic-v1\""),
            std::string::npos);
  // A real day was measured: the top tables must not be empty.
  EXPECT_EQ(exports[0].find("\"top_slds\": []"), std::string::npos);
  EXPECT_EQ(exports[0].find("\"top_qnames\": []"), std::string::npos);
}

TEST(TrafficPlaneEngine, ScrapesWhileFeedingNeverChangeTheExport) {
  // Scrapes take each shard's lock between the batches its writer feeds
  // and read a copy of its Space-Saving state, so a scraper racing four
  // feeding shards must leave the same final export as no scraper.
  const auto run = [](bool scrape) {
    MiningSession session(small_scale());
    session.cluster(sharded_cluster())
        .warmup(false)
        .threads(4)
        .enable_traffic_sketch();
    obs::TrafficSketchPlane* const plane = session.traffic_sketch();
    std::atomic<bool> started{false};
    std::jthread scraper;  // stopped and joined on every way out
    if (scrape) {
      scraper = std::jthread([plane, &started](std::stop_token stop) {
        do {
          const std::string json = plane->to_json();
          EXPECT_NE(json.find("dnsnoise-traffic-v1"), std::string::npos);
          started.store(true);
        } while (!stop.stop_requested());
      });
      while (!started.load()) std::this_thread::yield();
    }
    DayCapture capture;
    const EngineReport report =
        session.simulate(ScenarioDate::kNov14, capture);
    scraper = {};  // stops and joins the scraper
    EXPECT_TRUE(report.ok()) << report.error;
    return plane->to_json();
  };
  const std::string unscraped = run(false);
  EXPECT_EQ(unscraped, run(true));
  EXPECT_EQ(unscraped.find("\"top_qnames\": []"), std::string::npos);
}

TEST(TrafficPlaneEngine, ServedDayMeasuresTheEngineDaysTraffic) {
  // The engine's shard streams, merged in timestamp order, replayed
  // through the served day's frontend with replay metadata: each served
  // server's tap feeds its own sketch shard the queries the engine's
  // shard of the same index feeds its sketch, in the same order.  Both
  // days then arm the classifier with the same findings, so the exports
  // must be byte-identical.
  const ScenarioDate date = ScenarioDate::kNov14;
  const std::int64_t day_index = scenario_day_index(date);
  const ClusterConfig cluster = sharded_cluster();

  MiningSession engine(small_scale());
  engine.cluster(cluster).threads(2).enable_traffic_sketch();
  DayCapture capture;
  const MiningDayResult engine_day = engine.run(date, capture, day_index);
  ASSERT_TRUE(engine_day.ok()) << engine_day.error;
  const std::uint64_t queries = engine.traffic_sketch()->snapshot().queries;

  struct Query {
    SimTime ts;
    std::uint64_t client;
    std::string qname;
    RRType qtype;
  };
  std::vector<Query> stream;
  const Scenario recorder(date, small_scale());
  for (std::size_t shard = 0; shard < cluster.server_count; ++shard) {
    recorder.traffic().run_day_shard(
        day_index, {cluster.server_count, shard},
        [&stream](SimTime ts, std::uint64_t client, const QuerySpec& query) {
          stream.push_back({ts, client, query.qname, query.qtype});
        });
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Query& a, const Query& b) { return a.ts < b.ts; });

  MiningSession served(small_scale());
  served.cluster(cluster)
      .threads(2)
      .enable_traffic_sketch()
      .enable_dns_server();
  const auto day = served.serve(date);
  ASSERT_NE(day, nullptr);
  ASSERT_TRUE(day->ok()) << day->error();
  const net::UdpPeer peer{0x7f000001, 53};
  std::vector<std::uint8_t> response;
  std::uint16_t id = 1;
  std::uint64_t replayed = 0;
  for (const Query& q : stream) {
    const auto qname = DomainName::parse(q.qname);
    if (!qname) continue;  // the drive loop skips unparseable names too
    DnsMessage query = DnsMessage::make_query(id++, *qname, q.qtype);
    net::attach_replay_meta(query, {.ts = q.ts, .client_id = q.client});
    ASSERT_TRUE(day->frontend().handle_query(encode_message(query), peer,
                                             response,
                                             WireFrontend::Transport::kUdp));
    ++replayed;
  }
  EXPECT_EQ(replayed, queries);
  const MiningDayResult result = day->finish();
  ASSERT_TRUE(result.ok()) << result.error;

  EXPECT_EQ(served.traffic_sketch()->shard_count(), cluster.server_count);
  EXPECT_EQ(served.traffic_sketch()->to_json(),
            engine.traffic_sketch()->to_json());
  const obs::TrafficSnapshot snap = served.traffic_sketch()->snapshot();
  EXPECT_GT(snap.queries, 0u);
  EXPECT_GT(snap.nxdomain, 0u);
  EXPECT_GT(snap.classifier_zones, 0u);
}

TEST(TrafficPlaneEngine, FindingsAreByteIdenticalWithPlaneOnOrOff) {
  const auto run = [](bool with_plane) {
    MiningSession session(small_scale());
    session.cluster(sharded_cluster()).warmup(false).threads(2);
    if (with_plane) session.enable_traffic_sketch();
    return session.run(ScenarioDate::kNov14);
  };
  const MiningDayResult off = run(false);
  const MiningDayResult on = run(true);
  ASSERT_TRUE(off.ok()) << off.error;
  ASSERT_TRUE(on.ok()) << on.error;
  ASSERT_EQ(off.findings.size(), on.findings.size());
  for (std::size_t i = 0; i < off.findings.size(); ++i) {
    EXPECT_EQ(off.findings[i].zone, on.findings[i].zone) << i;
    EXPECT_EQ(off.findings[i].depth, on.findings[i].depth) << i;
    EXPECT_EQ(off.findings[i].confidence, on.findings[i].confidence) << i;
    EXPECT_EQ(off.findings[i].group_size, on.findings[i].group_size) << i;
  }
}

TEST(TrafficPlaneEngine, MinedZonesArmTheLiveClassifier) {
  MiningSession session(small_scale());
  session.cluster(sharded_cluster())
      .warmup(false)
      .threads(2)
      .enable_traffic_sketch();
  obs::TrafficSketchPlane* const plane = session.traffic_sketch();
  ASSERT_NE(plane, nullptr);
  EXPECT_EQ(plane->classifier_zone_count(), 0u);

  // Day 1: no classifier yet -> disposable share is zero by definition.
  const MiningDayResult day1 = session.run(ScenarioDate::kNov14);
  ASSERT_TRUE(day1.ok()) << day1.error;
  ASSERT_FALSE(day1.findings.empty());
  EXPECT_EQ(plane->classifier_zone_count(), day1.findings.size());
  EXPECT_EQ(plane->snapshot().disposable, 0u);

  // Day 2: yesterday's zones classify today's traffic live.  Nearby
  // dates share most of the zone population, so the share must be
  // strictly positive and sane.
  const MiningDayResult day2 = session.run(ScenarioDate::kNov29);
  ASSERT_TRUE(day2.ok()) << day2.error;
  const obs::TrafficSnapshot snap = plane->snapshot();
  EXPECT_GT(snap.disposable, 0u);
  EXPECT_GT(snap.disposable_share(), 0.0);
  EXPECT_LE(snap.disposable_share(), 1.0);
}

TEST(TrafficPlaneEngine, LiveScrapeServesStableDocAndGauges) {
  MiningSession session(small_scale());
  session.cluster(sharded_cluster())
      .warmup(false)
      .threads(2)
      .enable_traffic_sketch()
      .enable_telemetry();
  ASSERT_NE(session.telemetry(), nullptr);
  ASSERT_TRUE(session.telemetry()->running()) << session.telemetry()->error();
  const std::uint16_t port = session.telemetry()->port();

  const MiningDayResult result = session.run(ScenarioDate::kNov14);
  ASSERT_TRUE(result.ok()) << result.error;

  // Quiesced plane: two scrapes must serve byte-identical documents.
  const std::string first = http_body(port, "/traffic");
  const std::string second = http_body(port, "/traffic");
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"schema\": \"dnsnoise-traffic-v1\""),
            std::string::npos);
  EXPECT_EQ(first.find("\"top_slds\": []"), std::string::npos);
  // And it matches the in-process export exactly.
  EXPECT_EQ(first, session.traffic_sketch()->to_json());

  // /metrics carries the refreshed top-level traffic gauges.
  const std::string metrics = http_body(port, "/metrics");
  EXPECT_NE(metrics.find("dnsnoise_traffic_queries"), std::string::npos);
  EXPECT_NE(metrics.find("dnsnoise_traffic_disposable_share"),
            std::string::npos);
  EXPECT_NE(metrics.find("dnsnoise_traffic_distinct_qnames"),
            std::string::npos);
}

}  // namespace
}  // namespace dnsnoise
