#include "resolver/wire_frontend.h"

#include <algorithm>
#include <exception>

#include "dns/wire.h"
#include "net/udp_client.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace dnsnoise {

namespace {

constexpr std::size_t kWireHeaderSize = 12;

/// Stable anonymized client id for a socket peer — the live-mode stand-in
/// for the simulator's client ids.
std::uint64_t client_id_for_peer(const net::UdpPeer& peer) {
  return mix64((static_cast<std::uint64_t>(peer.addr) << 16) ^ peer.port);
}

void bump(std::atomic<std::uint64_t>& local, obs::Counter* metric) {
  local.fetch_add(1, std::memory_order_relaxed);
  if (metric != nullptr) metric->add(1);
}

/// Minimal response skeleton echoing the request identity.
DnsMessage make_skeleton(std::uint16_t id, bool rd, RCode rcode) {
  DnsMessage response;
  response.header.id = id;
  response.header.qr = true;
  response.header.rd = rd;
  response.header.ra = true;
  response.header.rcode = rcode;
  return response;
}

}  // namespace

WireFrontend::WireFrontend(std::span<RdnsCluster* const> clusters,
                           const WireFrontendConfig& config)
    : clusters_(clusters.begin(), clusters.end()),
      config_(config),
      heartbeat_(config.metrics, "server", /*every_n=*/64),
      slowlog_(config.slowlog_capacity) {
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *config_.metrics;
    queries_metric_ = &metrics.counter("server.queries");
    formerr_metric_ = &metrics.counter("server.formerr");
    notimp_metric_ = &metrics.counter("server.notimp");
    dropped_metric_ = &metrics.counter("server.dropped");
    truncated_metric_ = &metrics.counter("server.truncated");
    tcp_metric_ = &metrics.counter("server.tcp_queries");
    decode_latency_ = &metrics.histogram("server.latency.decode_ns");
    cluster_latency_ = &metrics.histogram("server.latency.cluster_ns");
    encode_latency_ = &metrics.histogram("server.latency.encode_ns");
    total_latency_ = &metrics.histogram("server.latency.total_ns");
    latency_baseline_ = stage_latency();
  }
}

WireFrontend::~WireFrontend() { stop(); }

bool WireFrontend::start() {
  if (running()) {
    error_ = "frontend already running";
    return false;
  }
  error_.clear();
  started_ = std::chrono::steady_clock::now();
  const auto udp_handler = [this](std::span<const std::uint8_t> request,
                                  const net::UdpPeer& peer,
                                  std::vector<std::uint8_t>& response) {
    return handle_query(request, peer, response, Transport::kUdp);
  };
  if (!udp_.start(config_.udp, udp_handler)) {
    error_ = "udp: " + udp_.error();
    return false;
  }
  if (config_.tcp_fallback) {
    const auto tcp_handler = [this](std::span<const std::uint8_t> request,
                                    const net::UdpPeer& peer,
                                    std::vector<std::uint8_t>& response) {
      return handle_query(request, peer, response, Transport::kTcp);
    };
    // Same port number as the resolved UDP socket: TC retries need no
    // out-of-band port discovery.
    if (!tcp_.start(config_.udp.host, udp_.port(), tcp_handler)) {
      error_ = "tcp: " + tcp_.error();
      udp_.stop();
      return false;
    }
  }
  heartbeat_.beat();
  return true;
}

void WireFrontend::stop() {
  tcp_.stop();
  udp_.stop();
}

StageLatencyBreakdown WireFrontend::stage_latency() const {
  StageLatencyBreakdown out;
  if (!latency_tracked()) return out;
  const auto own = [](const obs::LatencyRecorder* recorder,
                      const obs::LatencySnapshot& baseline) {
    return recorder->snapshot().delta_since(baseline);
  };
  out.decode = own(decode_latency_, latency_baseline_.decode);
  out.cluster = own(cluster_latency_, latency_baseline_.cluster);
  out.encode = own(encode_latency_, latency_baseline_.encode);
  out.total = own(total_latency_, latency_baseline_.total);
  return out;
}

void WireFrontend::record_stage_latency(std::uint64_t decode_ns,
                                        std::uint64_t cluster_ns,
                                        std::uint64_t encode_ns, SimTime ts,
                                        const std::string& qname) {
  decode_latency_->record(decode_ns);
  cluster_latency_->record(cluster_ns);
  encode_latency_->record(encode_ns);
  const std::uint64_t total_ns = decode_ns + cluster_ns + encode_ns;
  total_latency_->record(total_ns);

  // The qname copy only happens for queries that currently qualify as
  // slow; the fast-path check is one relaxed load.
  if (slowlog_.would_admit(total_ns)) {
    obs::SlowQueryEntry slow;
    slow.total_ns = total_ns;
    slow.decode_ns = decode_ns;
    slow.cluster_ns = cluster_ns;
    slow.encode_ns = encode_ns;
    slow.ts = static_cast<std::uint64_t>(ts);
    slow.qname = qname;
    slowlog_.maybe_add(slow);
  }
}

WireFrontendStats WireFrontend::stats() const noexcept {
  WireFrontendStats stats;
  stats.queries = queries_.load(std::memory_order_relaxed);
  stats.udp_queries = udp_queries_.load(std::memory_order_relaxed);
  stats.tcp_queries = tcp_queries_.load(std::memory_order_relaxed);
  stats.formerr = formerr_.load(std::memory_order_relaxed);
  stats.notimp = notimp_.load(std::memory_order_relaxed);
  stats.dropped = dropped_.load(std::memory_order_relaxed);
  stats.truncated = truncated_.load(std::memory_order_relaxed);
  return stats;
}

SimTime WireFrontend::live_timestamp() const noexcept {
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                           std::chrono::steady_clock::now() - started_)
                           .count();
  return config_.day_start +
         std::min<SimTime>(static_cast<SimTime>(elapsed), kSecondsPerDay - 1);
}

bool WireFrontend::handle_query(std::span<const std::uint8_t> request,
                                const net::UdpPeer& peer,
                                std::vector<std::uint8_t>& response,
                                Transport transport) {
  try {
    if (request.size() < kWireHeaderSize) {
      // Not even a header to echo: silent drop, like real servers.
      bump(dropped_, dropped_metric_);
      return false;
    }
    const std::uint16_t id =
        static_cast<std::uint16_t>((request[0] << 8) | request[1]);
    const bool rd = (request[2] & 0x01) != 0;

    // Stage clocks for the decode → cluster → encode breakdown; only
    // read when latency tracking is on (two clock reads per stage).
    using Clock = std::chrono::steady_clock;
    const bool timed = latency_tracked();
    const auto stage_now = [timed]() {
      return timed ? Clock::now() : Clock::time_point{};
    };
    const auto t_start = stage_now();

    auto message = decode_message(request);
    if (!message) {
      // Truncated sections, label overruns, compression loops, junk: the
      // decoder is non-throwing, so the worst malformed input costs is a
      // FORMERR round trip.
      bump(formerr_, formerr_metric_);
      response = encode_message(make_skeleton(id, rd, RCode::FormErr));
      return true;
    }
    if (message->header.qr) {
      // A response, not a query; answering would loop two servers forever.
      bump(dropped_, dropped_metric_);
      return false;
    }
    if (message->header.opcode != 0) {
      bump(notimp_, notimp_metric_);
      response = encode_message(make_skeleton(id, rd, RCode::NotImp));
      return true;
    }
    if (message->questions.size() != 1) {
      bump(formerr_, formerr_metric_);
      response = encode_message(make_skeleton(id, rd, RCode::FormErr));
      return true;
    }

    SimTime ts = 0;
    std::uint64_t client_id = 0;
    bool have_meta = false;
    if (config_.allow_replay_meta) {
      if (const auto meta = net::extract_replay_meta(*message)) {
        ts = meta->ts;
        client_id = meta->client_id;
        have_meta = true;
      }
    }
    if (!have_meta) {
      ts = live_timestamp();
      client_id = client_id_for_peer(peer);
    }

    DnsMessage reply = make_skeleton(id, rd, RCode::NoError);
    reply.questions.push_back(message->questions.front());
    RdnsCluster& cluster = *clusters_[shard_of(client_id, clusters_.size())];
    const auto t_decoded = stage_now();
    {
      // The clusters, their caches, name tables and tap observers are
      // single-threaded by contract; serialize the round trip and convert
      // the zero-copy view to presentation records before releasing (it
      // aliases cluster storage, and its ids resolve through the table).
      const std::lock_guard<std::mutex> lock(cluster_mutex_);
      heartbeat_.tick();
      const QueryView view =
          cluster.query_view(client_id, reply.questions.front(), ts);
      reply.header.rcode = view.rcode;
      to_resource_records(view.answers, cluster.names(), reply.answers);
    }
    const auto t_clustered = stage_now();
    bump(queries_, queries_metric_);
    if (transport == Transport::kTcp) {
      bump(tcp_queries_, tcp_metric_);
    } else {
      udp_queries_.fetch_add(1, std::memory_order_relaxed);
    }

    response = encode_message(reply);
    if (transport == Transport::kUdp &&
        response.size() > config_.max_udp_payload) {
      // Classic truncation: header + question only, TC=1; the client
      // retries over TCP for the full answer.
      bump(truncated_, truncated_metric_);
      reply.answers.clear();
      reply.authority.clear();
      reply.additional.clear();
      reply.header.tc = true;
      response = encode_message(reply);
    }
    if (timed) {
      const auto span_ns = [](Clock::time_point from, Clock::time_point to) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
                .count());
      };
      record_stage_latency(span_ns(t_start, t_decoded),
                           span_ns(t_decoded, t_clustered),
                           span_ns(t_clustered, stage_now()), ts,
                           reply.questions.front().name.text());
    }
    return true;
  } catch (const std::exception&) {
    // encode_message throws only on unparseable A/AAAA rdata; whatever the
    // cause, a serving thread must never die on one query.
    bump(dropped_, dropped_metric_);
    return false;
  }
}

}  // namespace dnsnoise
