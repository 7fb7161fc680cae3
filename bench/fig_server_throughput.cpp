// Wire front-end throughput harness (DESIGN.md §14).
//
// Serves a flat synthetic zone through resolver/wire_frontend and replays a
// pipelined query stream against it with the in-repo wire client: a window
// of W datagrams stays outstanding on one UDP socket, so the measurement
// exercises the server's recvmmsg/sendmmsg batching rather than lockstep
// round-trip latency.  Reports answered queries/sec and writes
// BENCH_server.json for tools/check_bench_regression.py (ratio gate against
// bench/baselines/BENCH_server.json plus the CI --floor backstop).
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dns/wire.h"
#include "net/udp_client.h"
#include "obs/latency.h"
#include "resolver/wire_frontend.h"

namespace dnsnoise {
namespace {

struct Args {
  std::uint64_t queries = 50'000;
  std::uint64_t names = 2'000;    // distinct qnames (cache hits past round 1)
  std::size_t shards = 2;
  std::size_t batch = 32;
  std::size_t window = 32;        // outstanding datagrams
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::uint64_t {
      return i + 1 < argc ? std::strtoull(argv[++i], nullptr, 10) : 0;
    };
    if (arg == "--queries") {
      args.queries = value();
    } else if (arg == "--names") {
      args.names = value();
    } else if (arg == "--shards") {
      args.shards = static_cast<std::size_t>(value());
    } else if (arg == "--batch") {
      args.batch = static_cast<std::size_t>(value());
    } else if (arg == "--window") {
      args.window = static_cast<std::size_t>(value());
    } else {
      std::fprintf(stderr,
                   "usage: %s [--queries N] [--names N] [--shards N] "
                   "[--batch N] [--window N]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (args.queries == 0) args.queries = 1;
  if (args.names == 0) args.names = 1;
  if (args.window == 0) args.window = 1;
  return args;
}

}  // namespace
}  // namespace dnsnoise

int main(int argc, char** argv) {
  using namespace dnsnoise;
  const Args args = parse_args(argc, argv);
  bench::print_header("BENCH server",
                      "wire front-end throughput (UDP, pipelined client)");

  obs::MetricsRegistry registry;
  SyntheticAuthority authority;
  authority.register_zone(*DomainName::parse("bench.test"),
                          SyntheticAuthority::make_flat_a_zone(60));
  ClusterConfig cluster_config;
  cluster_config.server_count = 1;
  cluster_config.metrics = &registry;
  RdnsCluster cluster(cluster_config, authority);

  WireFrontendConfig frontend_config;
  frontend_config.udp.shards = args.shards;
  frontend_config.udp.batch = args.batch;
  frontend_config.allow_replay_meta = true;
  frontend_config.metrics = &registry;
  WireFrontend frontend(std::array{&cluster}, frontend_config);
  if (!frontend.start()) {
    std::fprintf(stderr, "frontend start failed: %s\n",
                 frontend.error().c_str());
    return 1;
  }
  std::printf("  serving udp=127.0.0.1:%u shards=%zu batched=%s window=%zu\n",
              frontend.udp_port(), frontend.shard_count(),
              net::UdpServer::batched() ? "yes" : "no", args.window);

  net::UdpClient client;
  if (!client.connect("127.0.0.1", frontend.udp_port())) {
    std::fprintf(stderr, "client connect failed: %s\n", client.error().c_str());
    return 1;
  }

  // Pre-encode the whole stream so the measured loop is pure socket work.
  std::vector<std::vector<std::uint8_t>> wire;
  wire.reserve(args.queries);
  for (std::uint64_t i = 0; i < args.queries; ++i) {
    const std::string qname =
        "q" + std::to_string(i % args.names) + ".bench.test";
    DnsMessage query = DnsMessage::make_query(
        static_cast<std::uint16_t>(i), *DomainName::parse(qname), RRType::A);
    net::attach_replay_meta(
        query, {.ts = static_cast<SimTime>(i / 100), .client_id = i % 97});
    wire.push_back(encode_message(query));
  }

  std::uint64_t answered = 0;
  std::uint64_t lost = 0;
  // Per-query RTT from the actual send, matched by DNS id (the stream
  // assigns id = i mod 65536; the window keeps collisions impossible).
  // This is a *closed-loop windowed* measurement: it reports how fast
  // answered queries came back, not queueing under a fixed offered rate —
  // fig_loadgen's open loop covers that.
  obs::LatencyRecorder rtt;
  auto& rtt_shard = rtt.shard(0);
  std::vector<std::chrono::steady_clock::time_point> send_time(65536);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sent = 0;
  std::size_t outstanding = 0;
  while (answered + lost < args.queries) {
    while (sent < args.queries && outstanding < args.window) {
      send_time[sent % 65536] = std::chrono::steady_clock::now();
      client.send(wire[sent]);
      ++sent;
      ++outstanding;
    }
    if (outstanding == 0) break;
    if (const auto resp = client.receive(1000)) {
      ++answered;
      if (resp->size() >= 2) {
        const std::uint16_t id =
            static_cast<std::uint16_t>(((*resp)[0] << 8) | (*resp)[1]);
        rtt_shard.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - send_time[id])
                .count()));
      }
    } else {
      // Window's worth of silence: count everything in flight as lost.
      lost += outstanding;
      outstanding = 0;
      continue;
    }
    --outstanding;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double qps = seconds > 0 ? static_cast<double>(answered) / seconds : 0;

  const WireFrontendStats stats = frontend.stats();
  const std::size_t shard_count = frontend.shard_count();
  frontend.stop();
  std::printf("  answered %llu of %llu (%llu lost) in %.3fs\n",
              static_cast<unsigned long long>(answered),
              static_cast<unsigned long long>(args.queries),
              static_cast<unsigned long long>(lost), seconds);
  std::printf("  wire throughput: %.0f queries/sec (server saw %llu)\n", qps,
              static_cast<unsigned long long>(stats.queries));
  bench::print_claim(
      "served queries feed the same tap/metrics path as in-process traffic",
      "server.queries == answered + lost-in-flight, zero crashes");

  const obs::LatencySnapshot rtts = rtt.snapshot();
  const obs::LatencyPercentiles pct = rtts.percentiles_seconds();
  std::printf("  closed-loop RTT: p50=%.6fs p99=%.6fs (window=%zu)\n", pct.p50,
              pct.p99, args.window);

  registry.gauge("server.wire_queries_per_sec").set(qps);
  registry.gauge("server.wire_answered").set(static_cast<double>(answered));
  registry.gauge("server.wire_lost").set(static_cast<double>(lost));
  registry.gauge("server.wire_shards").set(static_cast<double>(shard_count));
  // Closed-loop (windowed) RTTs — lower-is-better gated; see fig_loadgen
  // for the open-loop, coordinated-omission-free view.
  registry.gauge("server.wire_p50_latency_seconds").set(pct.p50);
  registry.gauge("server.wire_p99_latency_seconds").set(pct.p99);
  const std::string path = bench::write_bench_json("server", registry);
  if (!path.empty()) std::printf("  wrote %s\n", path.c_str());

  // Loss on loopback means the harness outran the kernel buffers, which the
  // window bound should prevent; a lossy run would understate throughput.
  if (answered == 0) {
    std::fprintf(stderr, "no queries answered; server broken\n");
    return 1;
  }
  return 0;
}
