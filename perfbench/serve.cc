// The serving path's ledger: a served mining day (MiningSession::
// enable_dns_server ... serve(), DayCapture attached) under open-loop
// src/loadgen traffic over loopback UDP, then an in-process replay of the
// same kind of query stream through the frontend with no socket.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dns/wire.h"
#include "engine/parallel_miner.h"
#include "loadgen/driver.h"
#include "net/udp_client.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dnsnoise;

constexpr ScenarioDate kDate = ScenarioDate::kDec30;
constexpr const char* kZone = "bench.test";

// Thread budget: socket shards and load-generator connections each own a
// thread, and together they may not exceed the host's cores.
constexpr std::size_t kSocketShards = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kSessionThreads = 2;

// The served traffic: Zipf s=1.1 over 200k names of one flat zone, from
// 4096 replay-meta clients, Poisson arrivals at a nominal 40k qps (about a
// third of what the server sustains on a 4-core host).
constexpr std::size_t kNames = 200'000;
constexpr std::size_t kClients = 4096;
constexpr double kZipfS = 1.1;
constexpr double kNominalQps = 40'000.0;
constexpr double kWarmupSeconds = 1.5;
constexpr double kPassSeconds = 4.5;
constexpr std::size_t kReplayed = 30'000;
// Generator health: below this share of the offered rate actually sent,
// the pass measures the generator, not the server.
constexpr double kMinSendRatio = 0.98;

ScenarioScale serve_scale(std::uint64_t seed) {
  // examples/dns_server's default scenario volume; the warmup runs half.
  ScenarioScale scale;
  scale.queries_per_day = 40'000;
  scale.client_count = scale.queries_per_day / 20;
  scale.traffic_stream = seed;
  return scale;
}

void register_bench_zone(SyntheticAuthority& authority) {
  authority.register_zone(*DomainName::parse(kZone),
                          SyntheticAuthority::make_flat_a_zone(60));
}

/// The served day mines with a model trained beforehand on an in-process
/// day of the same scenario (the paper applies one model across days):
/// the served traffic is a single flat zone, which labels nothing.
std::unique_ptr<LadTree> train_model(std::uint64_t seed) {
  ScenarioScale scale = serve_scale(seed);
  scale.queries_per_day = 200'000;
  scale.client_count = scale.queries_per_day / 20;
  MiningSession session(scale);
  session.threads(kSessionThreads);
  const MiningDayResult day = session.run(kDate);
  if (!day.ok()) return nullptr;
  auto model = std::make_unique<LadTree>();
  model->train(to_dataset(day.labeled));
  return model;
}

/// Connected UDP socket for one load-generator connection.  Its receive
/// buffer is raised (up to the host's rmem_max) so a briefly descheduled
/// generator thread does not drop answers the server did send.
class ClientTransport final : public loadgen::QueryTransport {
 public:
  ClientTransport() = default;
  ~ClientTransport() override {
    if (fd_ >= 0) ::close(fd_);
  }
  ClientTransport(const ClientTransport&) = delete;
  ClientTransport& operator=(const ClientTransport&) = delete;

  bool connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) return false;
    const int buffer = 4 << 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buffer, sizeof buffer);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr) == 0;
  }

  bool send(std::span<const std::uint8_t> wire) override {
    return ::send(fd_, wire.data(), wire.size(), 0) ==
           static_cast<ssize_t>(wire.size());
  }

  std::optional<std::vector<std::uint8_t>> receive(int timeout_ms) override {
    pollfd waiter{fd_, POLLIN, 0};
    if (::poll(&waiter, 1, std::max(timeout_ms, 0)) <= 0) return std::nullopt;
    std::uint8_t buffer[65536];
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, MSG_DONTWAIT);
    if (n < 0) return std::nullopt;
    return std::vector<std::uint8_t>(buffer, buffer + n);
  }

 private:
  int fd_ = -1;
};

loadgen::WorkloadConfig traffic() {
  loadgen::WorkloadConfig workload;
  workload.arrival = loadgen::ArrivalProcess::kPoisson;
  workload.offered_qps = kNominalQps;
  workload.keys = loadgen::KeyDistribution::kZipf;
  workload.zipf_s = kZipfS;
  workload.name_count = kNames;
  workload.name_suffix = std::string(".") + kZone;
  workload.client_count = kClients;
  return workload;
}

/// One open-loop pass at the nominal rate, checked as one operation: it
/// fails when the generator errs or the server rejects a query.  Lost
/// datagrams are service quality, printed but not failed.
loadgen::LoadgenResult run_pass(Report& report, ServedMiningDay& day,
                                std::uint64_t seed, double seconds,
                                const char* what) {
  loadgen::LoadgenConfig config;
  config.mode = loadgen::LoopMode::kOpen;
  config.workload = traffic();
  config.connections = kConnections;
  config.queries = static_cast<std::uint64_t>(kNominalQps * seconds);
  config.timeout_ms = 100;
  config.drain_timeout_ms = 300;
  config.attach_replay_meta = true;
  config.seed = seed;
  const WireFrontendStats before = day.frontend().stats();
  const loadgen::LoadgenResult load = loadgen::run_load(
      config, [&day](std::size_t) -> std::unique_ptr<loadgen::QueryTransport> {
        auto transport = std::make_unique<ClientTransport>();
        if (!transport->connect(day.udp_port())) return nullptr;
        return transport;
      });
  const WireFrontendStats after = day.frontend().stats();
  const std::uint64_t rejected = (after.formerr - before.formerr) +
                                 (after.notimp - before.notimp) +
                                 (after.dropped - before.dropped);
  std::fprintf(stderr,
               "perfbench: serve %s: %llu sent, %llu lost, p50 %.1f us, "
               "p99 %.0f us\n",
               what, static_cast<unsigned long long>(load.sent),
               static_cast<unsigned long long>(load.lost),
               load.percentiles.p50 * 1e6, load.percentiles.p99 * 1e6);
  ++report.attempted;
  if (!load.ok || rejected > 0 || load.completed == 0) {
    ++report.failed;
    report.fail(std::string("serve ") + what + ": " +
                (load.ok ? std::to_string(rejected) + " rejected, " +
                               std::to_string(load.completed) + " answered"
                         : load.error));
  }
  return load;
}

/// Sent rate over offered rate: below 1 when the generator ran late.
double send_ratio(const loadgen::LoadgenResult& load) {
  if (load.offered_qps <= 0 || load.duration_seconds <= 0) return 0.0;
  return static_cast<double>(load.sent) / load.duration_seconds /
         load.offered_qps;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

}  // namespace

void add_serve_ledger(Report& report, std::uint64_t seed) {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  if (static_cast<long>(kSocketShards + kConnections) > cores) {
    report.fail("serve needs " +
                std::to_string(kSocketShards + kConnections) +
                " cores (socket shards + load connections), host has " +
                std::to_string(cores));
    return;
  }
  const std::unique_ptr<LadTree> model = train_model(seed);
  if (model == nullptr) {
    report.fail("training day for the served model failed");
    return;
  }

  // The served day's Scenario build, the part of a served day's set-up
  // that a shared per-day Scenario would move.
  Layer scenario;
  {
    const CountingScope counting;
    const Span span;
    const Scenario built(kDate, serve_scale(seed));
    scenario = span.elapsed();
  }

  DnsServerOptions server_options;
  server_options.socket_shards = kSocketShards;
  server_options.authority_hook = register_bench_zone;
  MiningSession session(serve_scale(seed));
  session.threads(kSessionThreads).pretrained(model.get()).enable_metrics();
  session.enable_dns_server(true, 0, server_options);
  const std::unique_ptr<ServedMiningDay> day = session.serve(kDate);
  if (day == nullptr || !day->ok()) {
    report.fail("served day did not start: " +
                (day != nullptr ? day->error() : std::string("disabled")));
    return;
  }

  // The socket pass, with the frontend's stage clocks on.
  const WireFrontendStats before = day->frontend().stats();
  const loadgen::LoadgenResult warmup =
      run_pass(report, *day, seed * 1000 + 1, kWarmupSeconds, "warmup");
  const loadgen::LoadgenResult socket =
      run_pass(report, *day, seed * 1000 + 2, kPassSeconds, "socket pass");
  // Every query sent was either answered by the server or lost on the way.
  const std::uint64_t answered =
      day->frontend().stats().queries - before.queries;
  const std::uint64_t sent = warmup.sent + socket.sent;
  const std::uint64_t lost = warmup.lost + socket.lost;
  if (answered > sent || answered + lost < sent) {
    report.fail("serve: server answered " + std::to_string(answered) + " of " +
                std::to_string(sent) + " sent, " + std::to_string(lost) +
                " lost");
  }
  if (send_ratio(socket) < kMinSendRatio) {
    report.fail("generator-limited: sent " +
                std::to_string(send_ratio(socket)) +
                " of the nominal rate; the pass is not a server result");
  }
  WireFrontend& frontend = day->frontend();
  frontend.flush_latency_metrics();
  const StageLatencyBreakdown socket_stages = frontend.stage_latency();

  // In-process replay: the same kind of stream through handle_query.
  const loadgen::Workload workload(traffic());
  Rng rng(shard_seed(seed, 77));
  std::vector<std::vector<std::uint8_t>> requests;
  requests.reserve(kReplayed);
  for (std::size_t i = 0; i < kReplayed; ++i) {
    const std::optional<DomainName> name =
        DomainName::parse(workload.name_of(workload.next_key(rng)));
    DnsMessage query = DnsMessage::make_query(static_cast<std::uint16_t>(i),
                                              *name, RRType::A);
    const auto ts = static_cast<SimTime>(static_cast<double>(i) / kNominalQps);
    net::attach_replay_meta(query,
                            {.ts = ts, .client_id = workload.client_of(i)});
    requests.push_back(encode_message(query));
  }

  const CountingScope counting;
  const net::UdpPeer peer{0x7f000001, 53};
  std::vector<std::vector<std::uint8_t>> responses(kReplayed);
  std::vector<double> handle_ns(kReplayed);
  std::size_t handled = 0;
  const Span handle_span;
  for (std::size_t i = 0; i < kReplayed; ++i) {
    const auto start = Clock::now();
    handled += frontend.handle_query(requests[i], peer, responses[i],
                                     WireFrontend::Transport::kUdp);
    handle_ns[i] = static_cast<double>(ns_between(start, Clock::now()));
  }
  const Layer handle = handle_span.elapsed();
  if (handled != kReplayed) report.fail("in-process replay dropped queries");
  const obs::LatencySnapshot replay_cluster =
      frontend.stage_latency().cluster.delta_since(socket_stages.cluster);

  std::vector<DnsMessage> replies;
  replies.reserve(kReplayed);
  for (const auto& wire : responses) {
    if (auto reply = decode_message(wire)) replies.push_back(std::move(*reply));
  }
  std::size_t decoded = 0;
  const Span decode_span;
  for (const auto& wire : requests) decoded += decode_message(wire).has_value();
  const Layer decode = decode_span.elapsed();
  std::size_t encoded_bytes = 0;
  const Span encode_span;
  for (const DnsMessage& reply : replies) {
    encoded_bytes += encode_message(reply).size();
  }
  const Layer encode = encode_span.elapsed();
  if (decoded != kReplayed || replies.size() != kReplayed ||
      encoded_bytes == 0) {
    report.fail("in-process replay produced undecodable messages");
  }
  const WireFrontendStats stats = frontend.stats();

  ++report.attempted;
  const MiningDayResult finished = day->finish();
  if (!finished.ok()) {
    ++report.failed;
    report.fail("served day finish() not ok: " + finished.error);
  }

  const auto per_query = [](std::uint64_t total) {
    return static_cast<double>(total) / static_cast<double>(kReplayed);
  };
  report.add("serve.scenario_s", scenario.seconds(), "s");
  report.add("serve.scenario.allocs", static_cast<double>(scenario.allocs),
             "count");
  report.add("dns.decode_ns", per_query(decode.ns), "ns");
  report.add("dns.decode.allocs", per_query(decode.allocs), "count");
  report.add("dns.encode_ns", per_query(encode.ns), "ns");
  report.add("dns.encode.allocs", per_query(encode.allocs), "count");
  report.add("resolver.handle_ns", mean(handle_ns), "ns");
  report.add("resolver.handle.allocs", per_query(handle.allocs), "count");
  report.add("resolver.cluster_wait_ns",
             socket_stages.cluster.mean_ns() - replay_cluster.mean_ns(), "ns");
  report.add("net.socket_ns",
             socket.percentiles.p50 * 1e9 - median(handle_ns), "ns");
  report.add("loadgen.achieved_ratio", send_ratio(socket), "ratio");
  report.add("serve.p50_us", socket.percentiles.p50 * 1e6, "us");
  report.add("serve.p99_us", socket.percentiles.p99 * 1e6, "us");
  report.add("serve.lost", static_cast<double>(socket.lost), "count");
  report.add("server.queries", static_cast<double>(stats.queries), "count");
  report.add("server.dropped", static_cast<double>(stats.dropped), "count");
  report.add("server.formerr", static_cast<double>(stats.formerr), "count");
  report.add("server.truncated", static_cast<double>(stats.truncated),
             "count");
}

}  // namespace perfbench
