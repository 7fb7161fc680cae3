// DNS server mode: serve one simulated mining day over a real UDP socket
// (DESIGN.md §14).
//
// Starts a MiningSession in server mode: the warmup day runs in-process,
// then RFC 1035 wire queries — dig, examples/dns_query, or the CI smoke
// client — are answered from the same RDNS cluster + tap path the
// simulator uses, and mining runs over whatever the socket saw.
//
//   ./build/examples/dns_server --port 5353 &
//   dig @127.0.0.1 -p 5353 a1.smoke.test
//
// Options:
//   --port N         UDP port (default 5353; 0 picks an ephemeral port)
//   --shards N       SO_REUSEPORT socket shards (default 2)
//   --duration SEC   serve for SEC seconds, then finish and mine (default:
//                    until SIGINT/SIGTERM)
//   --telemetry N    also serve GET /metrics (OpenMetrics) on 127.0.0.1:N
//   --smoke-zones    register the CI smoke zones: `*.smoke.test` (flat A,
//                    TTL 60) and `*.fat.test` (40 A records — the response
//                    overflows UDP, forcing TC=1 + TCP retry)
//   --scale N        simulated queries/day backing the scenario (default
//                    40000; the warmup runs half of it)
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "engine/parallel_miner.h"
#include "obs/telemetry_server.h"

using namespace dnsnoise;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

void register_smoke_zones(SyntheticAuthority& authority) {
  authority.register_zone(*DomainName::parse("smoke.test"),
                          SyntheticAuthority::make_flat_a_zone(60));
  authority.register_zone(
      *DomainName::parse("fat.test"),
      [](const Question&, SimTime, AuthorityAnswer& out) {
        out.rcode = RCode::NoError;
        for (int i = 0; i < 40; ++i) {
          out.add_a(60, Ipv4::from_octets(10, 9, 0,
                                          static_cast<std::uint8_t>(i)));
        }
      });
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 5353;
  std::size_t shards = 2;
  long duration = -1;
  long telemetry_port = -1;  // -1 off; 0 picks an ephemeral port
  bool smoke_zones = false;
  std::uint64_t scale_queries = 40'000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> long {
      return i + 1 < argc ? std::strtol(argv[++i], nullptr, 10) : 0;
    };
    if (arg == "--port") {
      port = static_cast<std::uint16_t>(value());
    } else if (arg == "--shards") {
      shards = static_cast<std::size_t>(value());
    } else if (arg == "--duration") {
      duration = value();
    } else if (arg == "--telemetry") {
      telemetry_port = value();
    } else if (arg == "--smoke-zones") {
      smoke_zones = true;
    } else if (arg == "--scale") {
      scale_queries = static_cast<std::uint64_t>(value());
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port N] [--shards N] [--duration SEC] "
                   "[--telemetry N] [--smoke-zones] [--scale N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  ScenarioScale scale;
  scale.queries_per_day = scale_queries;
  scale.client_count = scale_queries / 20;

  DnsServerOptions server;
  server.socket_shards = shards;
  if (smoke_zones) server.authority_hook = register_smoke_zones;

  MiningSession session(scale);
  session.threads(2).enable_dns_server(true, port, server);
  if (telemetry_port >= 0) {
    session.enable_telemetry(true, static_cast<std::uint16_t>(telemetry_port));
  }

  std::printf("warming caches (%llu in-process queries)...\n",
              static_cast<unsigned long long>(scale_queries / 2));
  std::fflush(stdout);
  const auto day = session.serve(ScenarioDate::kDec30);
  if (day == nullptr || !day->ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 day != nullptr ? day->error().c_str() : "not enabled");
    return 1;
  }
  std::printf("SERVING udp=127.0.0.1:%u tcp=127.0.0.1:%u shards=%zu%s\n",
              day->udp_port(), day->tcp_port(), day->frontend().shard_count(),
              telemetry_port >= 0 ? " telemetry=on" : "");
  if (session.telemetry() != nullptr) {
    std::printf("METRICS http://127.0.0.1:%u/metrics\n",
                session.telemetry()->port());
  }
  std::fflush(stdout);

  const auto started = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (duration >= 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(duration)) {
      break;
    }
  }

  const WireFrontendStats stats = day->frontend().stats();
  std::printf("served %llu queries (udp=%llu tcp=%llu formerr=%llu "
              "notimp=%llu dropped=%llu truncated=%llu)\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.udp_queries),
              static_cast<unsigned long long>(stats.tcp_queries),
              static_cast<unsigned long long>(stats.formerr),
              static_cast<unsigned long long>(stats.notimp),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.truncated));
  const MiningDayResult result = day->finish();
  if (!result.ok()) {
    // A served day that saw no (or too few) queries has nothing to mine;
    // that is a normal way to stop a demo server.
    std::printf("no mining result: %s\n", result.error.c_str());
    return 0;
  }
  std::printf("mined %zu disposable-zone findings from the served day\n",
              result.findings.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(result.findings.size(), 5);
       ++i) {
    std::printf("  %s (confidence %.3f, %zu names)\n",
                result.findings[i].zone.c_str(), result.findings[i].confidence,
                static_cast<std::size_t>(result.findings[i].group_size));
  }
  return 0;
}
