// Live telemetry endpoint (obs/telemetry_server + net/http_listener):
// health evaluation (including the fault-injected stall -> 503 flip),
// request routing, a real-socket scrape of a running server, scraping
// concurrently with a mining run, and the obs contract that telemetry
// never changes findings.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "dns/wire.h"
#include "engine/parallel_miner.h"
#include "net/http_listener.h"
#include "net/udp_client.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/telemetry_server.h"

namespace dnsnoise {
namespace {

using obs::Heartbeat;
using obs::HealthDocument;
using obs::MetricsRegistry;
using obs::TelemetryConfig;
using obs::TelemetryServer;

/// One blocking HTTP/1.0-style exchange against 127.0.0.1:port.
std::string http_get(std::uint16_t port, const std::string& target,
                     const std::string& method = "GET") {
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
  const std::string request = method + " " + target +
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
  return response;
}

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

// --- render_health: pure, socket-free --------------------------------------

TEST(TelemetryHealth, IdleRegistryIsHealthy) {
  MetricsRegistry registry;
  obs::heartbeat_gauge(registry, "engine").set(0.0);  // ancient heartbeat
  const HealthDocument doc =
      obs::render_health(registry.snapshot(), /*now_seconds=*/1000.0,
                         /*stall_seconds=*/30.0);
  // No run active: stale heartbeats are fine, status is "idle".
  EXPECT_TRUE(doc.healthy);
  EXPECT_FALSE(doc.run_active);
  ASSERT_EQ(doc.stages.size(), 1u);
  EXPECT_EQ(doc.stages[0].stage, "engine");
  EXPECT_TRUE(doc.stages[0].ok);
  EXPECT_NE(doc.json.find("\"status\": \"idle\""), std::string::npos);
}

TEST(TelemetryHealth, FreshHeartbeatDuringRunIsOk) {
  MetricsRegistry registry;
  registry.gauge(std::string(obs::kRunActiveGauge)).set(1.0);
  obs::heartbeat_gauge(registry, "engine").set(995.0);
  const HealthDocument doc =
      obs::render_health(registry.snapshot(), 1000.0, 30.0);
  EXPECT_TRUE(doc.healthy);
  EXPECT_TRUE(doc.run_active);
  EXPECT_NE(doc.json.find("\"status\": \"ok\""), std::string::npos);
}

TEST(TelemetryHealth, StalledHeartbeatDuringRunFlipsUnhealthy) {
  // Fault injection: the run claims to be active but the engine stage
  // stopped beating 100s ago with a 30s budget.
  MetricsRegistry registry;
  registry.gauge(std::string(obs::kRunActiveGauge)).set(1.0);
  obs::heartbeat_gauge(registry, "engine").set(900.0);
  obs::heartbeat_gauge(registry, "miner").set(999.0);
  const HealthDocument doc =
      obs::render_health(registry.snapshot(), 1000.0, 30.0);
  EXPECT_FALSE(doc.healthy);
  ASSERT_EQ(doc.stages.size(), 2u);
  EXPECT_EQ(doc.stages[0].stage, "engine");
  EXPECT_FALSE(doc.stages[0].ok);
  EXPECT_EQ(doc.stages[1].stage, "miner");
  EXPECT_TRUE(doc.stages[1].ok);
  EXPECT_NE(doc.json.find("\"status\": \"stalled\""), std::string::npos);
}

// --- handle(): routing without sockets -------------------------------------

TEST(TelemetryServer, RoutesMetricsHealthzAndTrace) {
  MetricsRegistry registry;
  registry.counter("cluster.below_answers").add(7);
  TelemetryServer server(registry);  // not started; handle() is direct

  net::HttpRequest request;
  request.method = "GET";
  request.target = "/metrics";
  net::HttpResponse response = server.handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, obs::kOpenMetricsContentType);
  EXPECT_NE(response.body.find("dnsnoise_cluster_below_answers_total 7\n"),
            std::string::npos);
  EXPECT_NE(response.body.find("# EOF\n"), std::string::npos);

  request.target = "/metrics?format=prometheus";  // query string ignored
  EXPECT_EQ(server.handle(request).status, 200);

  request.target = "/healthz";
  response = server.handle(request);
  EXPECT_EQ(response.status, 200);  // idle -> healthy
  EXPECT_NE(response.body.find("dnsnoise-health-v1"), std::string::npos);

  request.target = "/trace";
  EXPECT_EQ(server.handle(request).status, 404);  // nothing published yet
  server.publish_trace("{\"schema\": \"dnsnoise-trace-v1\"}\n");
  response = server.handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("dnsnoise-trace-v1"), std::string::npos);

  request.target = "/nope";
  EXPECT_EQ(server.handle(request).status, 404);
}

TEST(TelemetryServer, HealthzFlips503OnInjectedStall) {
  MetricsRegistry registry;
  TelemetryConfig config;
  config.stall_seconds = 0.001;
  TelemetryServer server(registry, config);

  net::HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  EXPECT_EQ(server.handle(request).status, 200);  // idle

  // Inject: run active, heartbeat already older than the 1ms budget.
  registry.gauge(std::string(obs::kRunActiveGauge)).set(1.0);
  obs::heartbeat_gauge(registry, "engine")
      .set(obs::heartbeat_clock_seconds() - 1.0);
  EXPECT_EQ(server.handle(request).status, 503);

  // Recovery: the stage beats again (generous budget) -> healthy.
  TelemetryConfig healthy_config;
  healthy_config.stall_seconds = 3600.0;
  TelemetryServer healthy(registry, healthy_config);
  Heartbeat(&obs::heartbeat_gauge(registry, "engine")).beat();
  EXPECT_EQ(healthy.handle(request).status, 200);
}

// --- Real sockets ----------------------------------------------------------

TEST(TelemetryServer, ServesScrapesOverRealSockets) {
  MetricsRegistry registry;
  registry.counter("cluster.below_answers").add(42);
  TelemetryServer server(registry);  // port 0 -> ephemeral
  ASSERT_TRUE(server.start()) << server.error();
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("application/openmetrics-text"), std::string::npos);
  EXPECT_NE(metrics.find("dnsnoise_cluster_below_answers_total 42\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("# EOF\n"), std::string::npos);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);

  const std::string index = http_get(server.port(), "/");
  EXPECT_NE(index.find("dnsnoise telemetry"), std::string::npos);

  // Method discipline: POST is rejected, HEAD gets headers only.
  const std::string post = http_get(server.port(), "/metrics", "POST");
  EXPECT_NE(post.find("405"), std::string::npos);
  const std::string head = http_get(server.port(), "/metrics", "HEAD");
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(head.find("# EOF"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(TelemetryServer, SlowlogServes404UntilSourceIsSetAndAfterClear) {
  MetricsRegistry registry;
  TelemetryServer server(registry);
  ASSERT_TRUE(server.start()) << server.error();

  const std::string before = http_get(server.port(), "/slowlog");
  EXPECT_NE(before.find("404"), std::string::npos);

  server.set_slowlog_source(obs::SlowlogSource{
      [](std::size_t) {
        return std::string("{\"schema\": \"dnsnoise-slowlog-v1\"}\n");
      },
      {}});
  const std::string body = http_get(server.port(), "/slowlog");
  EXPECT_NE(body.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(body.find("dnsnoise-slowlog-v1"), std::string::npos);

  // Clearing (what ServedMiningDay does on finish) restores the 404 —
  // the server must never invoke a source whose owner has gone away.
  server.set_slowlog_source({});
  const std::string after = http_get(server.port(), "/slowlog");
  EXPECT_NE(after.find("404"), std::string::npos);
  server.stop();
}

TEST(TelemetryServer, SlowlogQueryParamsCapEntriesAnd400OnMalformed) {
  MetricsRegistry registry;
  TelemetryServer server(registry);
  // Render echoes the cap it received, so routing of ?n=N is observable.
  std::size_t seen_max = 1234;
  std::size_t clears = 0;
  server.set_slowlog_source(obs::SlowlogSource{
      [&seen_max](std::size_t max_entries) {
        seen_max = max_entries;
        return std::string("{\"schema\": \"dnsnoise-slowlog-v1\"}\n");
      },
      [&clears]() { ++clears; }});

  net::HttpRequest request;
  request.method = "GET";
  request.target = "/slowlog";
  EXPECT_EQ(server.handle(request).status, 200);
  EXPECT_EQ(seen_max, 0u);  // no cap

  request.target = "/slowlog?n=3";
  EXPECT_EQ(server.handle(request).status, 200);
  EXPECT_EQ(seen_max, 3u);

  // Well-formed but unrecognized keys are ignored (scraper noise).
  request.target = "/slowlog?format=json&n=7";
  EXPECT_EQ(server.handle(request).status, 200);
  EXPECT_EQ(seen_max, 7u);

  // Malformed query strings are 400, never silently ignored.
  for (const char* target :
       {"/slowlog?n", "/slowlog?=5", "/slowlog?n=abc", "/slowlog?n=-1",
        "/slowlog?n=1&bogus"}) {
    request.target = target;
    const net::HttpResponse response = server.handle(request);
    EXPECT_EQ(response.status, 400) << target;
    EXPECT_NE(response.body.find("\"error\""), std::string::npos) << target;
  }

  // POST /slowlog/clear invokes the clear hook exactly once.
  request.method = "POST";
  request.target = "/slowlog/clear";
  net::HttpResponse response = server.handle(request);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"cleared\": true"), std::string::npos);
  EXPECT_EQ(clears, 1u);

  // Wrong method on the clear endpoint: 405 with the allowed verb.
  request.method = "GET";
  response = server.handle(request);
  EXPECT_EQ(response.status, 405);
  ASSERT_EQ(response.headers.size(), 1u);
  EXPECT_EQ(response.headers[0].first, "Allow");
  EXPECT_EQ(response.headers[0].second, "POST");

  // POST against a read-only endpoint: 405 advertising GET, HEAD.
  request.method = "POST";
  request.target = "/metrics";
  response = server.handle(request);
  EXPECT_EQ(response.status, 405);
  ASSERT_EQ(response.headers.size(), 1u);
  EXPECT_EQ(response.headers[0].second, "GET, HEAD");

  // Detached source: the clear endpoint answers 404, not a crash.
  server.set_slowlog_source({});
  request.target = "/slowlog/clear";
  EXPECT_EQ(server.handle(request).status, 404);
  EXPECT_EQ(clears, 1u);
}

TEST(TelemetryServer, TrafficServes404UntilSourceIsSet) {
  MetricsRegistry registry;
  TelemetryServer server(registry);
  ASSERT_TRUE(server.start()) << server.error();

  const std::string before = http_get(server.port(), "/traffic");
  EXPECT_NE(before.find("404"), std::string::npos);

  server.set_traffic_source(
      []() { return std::string("{\"schema\": \"dnsnoise-traffic-v1\"}\n"); });
  const std::string body = http_get(server.port(), "/traffic");
  EXPECT_NE(body.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(body.find("dnsnoise-traffic-v1"), std::string::npos);
  const std::string index = http_get(server.port(), "/");
  EXPECT_NE(index.find("/traffic"), std::string::npos);

  server.set_traffic_source({});
  const std::string after = http_get(server.port(), "/traffic");
  EXPECT_NE(after.find("404"), std::string::npos);
  server.stop();
}

TEST(TelemetryServer, MetricsRefreshHookRunsBeforeEverySnapshot) {
  MetricsRegistry registry;
  TelemetryServer server(registry);
  server.set_metrics_refresh(
      [&registry]() { registry.gauge("traffic.refreshed").add(1.0); });

  net::HttpRequest request;
  request.method = "GET";
  request.target = "/metrics";
  const net::HttpResponse first = server.handle(request);
  EXPECT_NE(first.body.find("dnsnoise_traffic_refreshed 1\n"),
            std::string::npos);
  const net::HttpResponse second = server.handle(request);
  EXPECT_NE(second.body.find("dnsnoise_traffic_refreshed 2\n"),
            std::string::npos);
  // Other endpoints never trigger the refresh.
  request.target = "/healthz";
  (void)server.handle(request);
  request.target = "/metrics";
  EXPECT_NE(server.handle(request).body.find("dnsnoise_traffic_refreshed 3\n"),
            std::string::npos);
  server.set_metrics_refresh({});
  EXPECT_NE(server.handle(request).body.find("dnsnoise_traffic_refreshed 3\n"),
            std::string::npos);
}

TEST(HttpListener, UnknownMethodGets405WithAllowHeader) {
  MetricsRegistry registry;
  TelemetryServer server(registry);
  ASSERT_TRUE(server.start()) << server.error();

  // The listener answers unknown methods itself — a proper 405 with
  // Allow, instead of the old close-without-reply.
  const std::string response = http_get(server.port(), "/metrics", "DELETE");
  EXPECT_NE(response.find("HTTP/1.1 405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(response.find("Allow: GET, HEAD, POST"), std::string::npos);
  server.stop();
}

TEST(TelemetryServer, StartFailsCleanlyOnBusyPort) {
  MetricsRegistry registry;
  TelemetryServer first(registry);
  ASSERT_TRUE(first.start()) << first.error();
  TelemetryConfig config;
  config.port = first.port();
  TelemetryServer second(registry, config);
  EXPECT_FALSE(second.start());
  EXPECT_FALSE(second.error().empty());
  EXPECT_FALSE(second.running());
}

// --- Pipeline integration --------------------------------------------------

TEST(TelemetryPipeline, SessionServesLiveMetricsAndConcurrentScrapes) {
  MiningSession session(small_scale());
  session.cluster(small_cluster())
      .warmup(false)
      .threads(2)
      .enable_tracing()
      .enable_telemetry();
  ASSERT_NE(session.metrics(), nullptr);  // auto-enabled
  ASSERT_NE(session.telemetry(), nullptr);
  ASSERT_TRUE(session.telemetry()->running())
      << session.telemetry()->error();
  const std::uint16_t port = session.telemetry()->port();
  ASSERT_NE(port, 0);

  // Hammer /metrics and /healthz from another thread while the day mines:
  // scrapes snapshot on the serve thread, writers keep writing (the
  // concurrent-snapshot contract; run under TSan via the obs;engine
  // labels).
  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::string body = http_get(port, "/metrics");
      if (body.find("# EOF\n") != std::string::npos) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
      (void)http_get(port, "/healthz");
    }
  });
  const MiningDayResult result = session.run(ScenarioDate::kNov14);
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_GT(scrapes.load(), 0);

  // After the run: heartbeat gauges registered, run-active back to zero,
  // and the frozen trace is served on /trace.
  const obs::MetricsSnapshot snapshot = session.metrics()->snapshot();
  EXPECT_NE(snapshot.find("obs.heartbeat.engine"), nullptr);
  EXPECT_NE(snapshot.find("obs.heartbeat.miner"), nullptr);
  const obs::MetricSample* active = snapshot.find(obs::kRunActiveGauge);
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value, 0.0);
  const std::string trace = http_get(port, "/trace");
  EXPECT_NE(trace.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(trace.find("dnsnoise-trace-v1"), std::string::npos);
  const std::string health = http_get(port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\": \"idle\""), std::string::npos);
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("# TYPE dnsnoise_obs_heartbeat_engine gauge\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE dnsnoise_miner_mine_seconds histogram\n"),
            std::string::npos);
}

TEST(TelemetryPipeline, ServedDayPublishesItsTrace) {
  // A served day ends in run()'s tail, so its frozen trace is served on
  // /trace as run()'s is, miner stages included.
  const ScenarioDate date = ScenarioDate::kNov14;
  MiningSession session(small_scale());
  session.cluster(small_cluster())
      .warmup(false)
      .threads(2)
      .enable_tracing()
      .enable_telemetry()
      .enable_dns_server();
  const std::uint16_t port = session.telemetry()->port();
  const auto day = session.serve(date);
  ASSERT_NE(day, nullptr);
  ASSERT_TRUE(day->ok()) << day->error();
  EXPECT_NE(http_get(port, "/trace").find("HTTP/1.1 404"), std::string::npos);

  // A few of the day's queries, with their timestamps and clients.
  const Scenario recorder(date, small_scale());
  std::vector<std::uint8_t> response;
  std::uint16_t id = 1;
  recorder.traffic().run_day_shard(
      scenario_day_index(date), {small_cluster().server_count, 0},
      [&](SimTime ts, std::uint64_t client, const QuerySpec& query) {
        if (id > 50) return;
        DnsMessage message =
            DnsMessage::make_query(id++, DomainName(query.qname), query.qtype);
        net::attach_replay_meta(message, {.ts = ts, .client_id = client});
        EXPECT_TRUE(day->frontend().handle_query(
            encode_message(message), net::UdpPeer{0x7f000001, 53}, response,
            WireFrontend::Transport::kUdp));
      });
  const MiningDayResult result = day->finish();
  ASSERT_FALSE(result.trace_json.empty());
  const std::string trace = http_get(port, "/trace");
  EXPECT_NE(trace.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(trace.find("\"miner.label\""), std::string::npos);
  EXPECT_NE(trace.find(result.trace_json), std::string::npos);
}

TEST(TelemetryPipeline, TelemetryDoesNotChangeFindings) {
  MiningSession plain(small_scale());
  plain.cluster(small_cluster()).warmup(false);
  const MiningDayResult without = plain.run(ScenarioDate::kNov14);
  ASSERT_TRUE(without.ok()) << without.error;

  MiningSession observed(small_scale());
  observed.cluster(small_cluster()).warmup(false).enable_telemetry();
  ASSERT_TRUE(observed.telemetry()->running());
  const MiningDayResult with = observed.run(ScenarioDate::kNov14);
  ASSERT_TRUE(with.ok()) << with.error;

  ASSERT_EQ(without.findings.size(), with.findings.size());
  for (std::size_t i = 0; i < without.findings.size(); ++i) {
    EXPECT_EQ(without.findings[i].zone, with.findings[i].zone);
    EXPECT_EQ(without.findings[i].depth, with.findings[i].depth);
    EXPECT_DOUBLE_EQ(without.findings[i].confidence,
                     with.findings[i].confidence);
  }
}

TEST(TelemetryPipeline, ReenablingMetricsRebindsTheServer) {
  MiningSession session(small_scale());
  session.enable_telemetry();
  ASSERT_TRUE(session.telemetry()->running());
  const std::uint16_t old_port = session.telemetry()->port();
  (void)old_port;
  session.enable_metrics();  // fresh registry; server must follow it
  ASSERT_NE(session.telemetry(), nullptr);
  EXPECT_TRUE(session.telemetry()->running());
  const std::string body =
      http_get(session.telemetry()->port(), "/metrics");
  EXPECT_NE(body.find("# EOF\n"), std::string::npos);
  session.enable_telemetry(false);
  EXPECT_EQ(session.telemetry(), nullptr);
}

}  // namespace
}  // namespace dnsnoise
