// Open/closed-loop load harness figure (DESIGN.md §16).
//
// Drives the wire front-end with src/loadgen in three passes:
//
//   1. closed loop — N connections, one query outstanding each.  Finds
//      the server's self-paced throughput and its RTT tail measured from
//      actual sends (the optimistic, coordinated-omission-prone view);
//   2. open loop at a sustainable offered rate (a fraction of the
//      closed-loop rate) — scheduled sends, RTT from the schedule.  At a
//      rate the server can absorb, open-loop percentiles track the
//      closed-loop ones;
//   3. open loop at an overload offered rate (a multiple of the
//      closed-loop rate) — the backlog the closed loop can never see
//      shows up as a runaway open-loop tail.
//
// Writes BENCH_loadgen.json for tools/check_bench_regression.py: achieved
// QPS gauges gate higher-is-better, *_latency_seconds gauges gate
// lower-is-better, and the overload pass exports ungated *_seconds gauges
// (its tail is a demonstration, not a regression signal).
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "loadgen/driver.h"
#include "resolver/wire_frontend.h"

namespace dnsnoise {
namespace {

struct Args {
  std::uint64_t queries = 20'000;   // measured queries per pass
  std::uint64_t warmup = 2'000;     // unrecorded warmup per pass
  std::uint64_t names = 2'000;      // distinct qnames
  std::size_t connections = 4;      // closed-loop connections / open sockets
  std::size_t shards = 2;           // server socket shards
  double sustainable_fraction = 0.5;  // open rate 1 = this × closed QPS
  double overload_factor = 2.0;       // open rate 2 = this × closed QPS
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> double {
      return i + 1 < argc ? std::strtod(argv[++i], nullptr) : 0;
    };
    if (arg == "--queries") {
      args.queries = static_cast<std::uint64_t>(value());
    } else if (arg == "--warmup") {
      args.warmup = static_cast<std::uint64_t>(value());
    } else if (arg == "--names") {
      args.names = static_cast<std::uint64_t>(value());
    } else if (arg == "--connections") {
      args.connections = static_cast<std::size_t>(value());
    } else if (arg == "--shards") {
      args.shards = static_cast<std::size_t>(value());
    } else if (arg == "--sustainable-fraction") {
      args.sustainable_fraction = value();
    } else if (arg == "--overload-factor") {
      args.overload_factor = value();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--queries N] [--warmup N] [--names N] "
                   "[--connections N] [--shards N] "
                   "[--sustainable-fraction F] [--overload-factor F]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (args.queries == 0) args.queries = 1;
  if (args.names == 0) args.names = 1;
  if (args.connections == 0) args.connections = 1;
  return args;
}

void print_result(const char* label, const loadgen::LoadgenResult& result) {
  std::printf(
      "  %-16s offered=%8.0f achieved=%8.0f qps  completed=%llu lost=%llu\n",
      label, result.offered_qps, result.achieved_qps,
      static_cast<unsigned long long>(result.completed),
      static_cast<unsigned long long>(result.lost));
  std::printf("  %-16s p50=%.6fs p90=%.6fs p99=%.6fs p99.9=%.6fs\n", "",
              result.percentiles.p50, result.percentiles.p90,
              result.percentiles.p99, result.percentiles.p999);
}

void export_percentiles(obs::MetricsRegistry& registry,
                        const std::string& prefix,
                        const loadgen::LoadgenResult& result, bool gated) {
  // Gated names end in _latency_seconds (lower-is-better class); the
  // overload pass uses plain _seconds so its wild tail stays informative
  // without flapping the gate.
  const std::string suffix = gated ? "_latency_seconds" : "_seconds";
  registry.gauge(prefix + ".p50" + suffix).set(result.percentiles.p50);
  registry.gauge(prefix + ".p99" + suffix).set(result.percentiles.p99);
  registry.gauge(prefix + ".p999" + suffix).set(result.percentiles.p999);
}

}  // namespace
}  // namespace dnsnoise

int main(int argc, char** argv) {
  using namespace dnsnoise;
  const Args args = parse_args(argc, argv);
  bench::print_header("BENCH loadgen",
                      "open/closed-loop load harness (coordinated-omission-"
                      "free latency)");

  obs::MetricsRegistry registry;
  SyntheticAuthority authority;
  authority.register_zone(*DomainName::parse("bench.test"),
                          SyntheticAuthority::make_flat_a_zone(60));
  ClusterConfig cluster_config;
  cluster_config.server_count = 1;
  RdnsCluster cluster(cluster_config, authority);

  WireFrontendConfig frontend_config;
  frontend_config.udp.shards = args.shards;
  frontend_config.allow_replay_meta = true;
  frontend_config.metrics = &registry;
  WireFrontend frontend(std::array{&cluster}, frontend_config);
  if (!frontend.start()) {
    std::fprintf(stderr, "frontend start failed: %s\n",
                 frontend.error().c_str());
    return 1;
  }
  std::printf("  serving udp=127.0.0.1:%u shards=%zu connections=%zu\n",
              frontend.udp_port(), frontend.shard_count(), args.connections);

  loadgen::LoadgenConfig base;
  base.workload.name_count = args.names;
  base.workload.name_suffix = ".bench.test";
  base.workload.keys = loadgen::KeyDistribution::kZipf;
  base.workload.arrival = loadgen::ArrivalProcess::kPoisson;
  base.connections = args.connections;
  base.queries = args.queries;
  base.warmup_queries = args.warmup;
  base.attach_replay_meta = true;
  base.seed = 42;

  // Pass 1: closed loop discovers the self-paced rate.
  loadgen::LoadgenConfig closed = base;
  closed.mode = loadgen::LoopMode::kClosed;
  const auto closed_result =
      loadgen::run_load_udp(closed, "127.0.0.1", frontend.udp_port());
  if (!closed_result.ok || closed_result.completed == 0) {
    std::fprintf(stderr, "closed-loop pass failed: %s\n",
                 closed_result.error.c_str());
    return 1;
  }
  print_result("closed", closed_result);

  // Pass 2: open loop at a rate the server can absorb.
  loadgen::LoadgenConfig open_ok = base;
  open_ok.mode = loadgen::LoopMode::kOpen;
  open_ok.workload.offered_qps =
      closed_result.achieved_qps * args.sustainable_fraction;
  const auto open_result =
      loadgen::run_load_udp(open_ok, "127.0.0.1", frontend.udp_port());
  if (!open_result.ok || open_result.completed == 0) {
    std::fprintf(stderr, "open-loop pass failed: %s\n",
                 open_result.error.c_str());
    return 1;
  }
  print_result("open", open_result);

  // Pass 3: open loop past the closed-loop rate — the tail the closed
  // loop cannot see.
  loadgen::LoadgenConfig overload = base;
  overload.mode = loadgen::LoopMode::kOpen;
  overload.workload.offered_qps =
      closed_result.achieved_qps * args.overload_factor;
  const auto overload_result =
      loadgen::run_load_udp(overload, "127.0.0.1", frontend.udp_port());
  if (!overload_result.ok) {
    std::fprintf(stderr, "overload pass failed: %s\n",
                 overload_result.error.c_str());
    return 1;
  }
  print_result("open-overload", overload_result);

  const StageLatencyBreakdown stages = frontend.stage_latency();
  std::printf("  server stages (all passes): decode mean=%.0fns "
              "cluster mean=%.0fns encode mean=%.0fns\n",
              stages.decode.mean_ns(), stages.cluster.mean_ns(),
              stages.encode.mean_ns());
  frontend.stop();

  const bool tail_diverges =
      overload_result.percentiles.p99 > closed_result.percentiles.p99;
  bench::print_claim(
      "closed-loop latency hides queueing delay (coordinated omission)",
      std::string("overload open-loop p99 ") +
          (tail_diverges ? ">" : "NOT >") + " closed-loop p99 (" +
          std::to_string(overload_result.percentiles.p99) + "s vs " +
          std::to_string(closed_result.percentiles.p99) + "s)");

  registry.gauge("loadgen.closed.queries_per_sec")
      .set(closed_result.achieved_qps);
  export_percentiles(registry, "loadgen.closed", closed_result,
                     /*gated=*/true);
  registry.gauge("loadgen.open.offered_qps").set(open_result.offered_qps);
  registry.gauge("loadgen.open.queries_per_sec").set(open_result.achieved_qps);
  export_percentiles(registry, "loadgen.open", open_result, /*gated=*/true);
  registry.gauge("loadgen.overload.offered_qps")
      .set(overload_result.offered_qps);
  registry.gauge("loadgen.overload.achieved_qps")
      .set(overload_result.achieved_qps);
  export_percentiles(registry, "loadgen.overload", overload_result,
                     /*gated=*/false);
  registry.gauge("loadgen.overload.tail_diverges")
      .set(tail_diverges ? 1.0 : 0.0);
  registry.gauge("loadgen.connections")
      .set(static_cast<double>(args.connections));

  const std::string path = bench::write_bench_json("loadgen", registry);
  if (!path.empty()) std::printf("  wrote %s\n", path.c_str());
  return 0;
}
