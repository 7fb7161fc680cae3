// Wire-format DNS front-end for the RDNS cluster (DESIGN.md §14).
//
// Turns the simulated cluster into a real DNS server: RFC 1035 queries
// arrive over UDP (per-core SO_REUSEPORT shards, recvmmsg/sendmmsg
// batching via net/udp_server) or TCP, are decoded with the non-throwing
// bounds-checked codec (dns/wire), routed to the server their client
// hashes to (shard_of(client, servers), the cluster's own balancing) and
// resolved through RdnsCluster::query_view — the same zero-copy path
// in-process traffic takes, so served queries feed the same batched taps,
// caches, and metrics — and the answer is encoded back to the wire.  The
// servers are either the engine's single-server shards of a served day or
// one cluster, which balances over its own servers.  Responses larger
// than the UDP payload limit are truncated (TC=1) and the client retries
// over the TCP listener on the same port.
//
// Robustness contract: malformed input never crashes the server.  Payloads
// too short to carry a header are dropped; anything else undecodable is
// answered with FORMERR.  Decoding and encoding run concurrently on the
// shard threads; only the cluster round trip itself is serialized, under
// one mutex for all servers (the clusters and their tap observers are
// single-threaded by design).
//
// Replay mode (allow_replay_meta): queries may carry the (timestamp,
// client) pair of a captured timeline in a reserved TXT additional record
// (net/udp_client.h), which the frontend consumes instead of assigning
// live values — the mechanism behind the "findings are bit-identical
// in-process vs over-the-socket" golden test.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "net/udp_server.h"
#include "obs/heartbeat.h"
#include "obs/latency.h"
#include "resolver/cluster.h"
#include "util/sim_time.h"

namespace dnsnoise {

struct WireFrontendConfig {
  /// Transport configuration (port 0 picks an ephemeral port; the TCP
  /// listener binds the same resolved port).
  net::UdpServerConfig udp;
  /// Serve truncated responses in full over TCP.
  bool tcp_fallback = true;
  /// UDP responses above this size are truncated to a TC=1 header+question
  /// (classic 512-byte limit; this codec speaks no EDNS0).
  std::size_t max_udp_payload = 512;
  /// Honor replay-meta records (see net/udp_client.h).  Off for real
  /// traffic: clients must not choose their own timestamps.
  bool allow_replay_meta = false;
  /// Simulated timestamp of the serving day's start; live queries get
  /// day_start + seconds-since-start(), clamped into the day.
  SimTime day_start = 0;
  /// Opt-in observability: registers the server.* counters and the
  /// "server" heartbeat stage, and records every well-formed query's
  /// decode → cluster → encode spans straight into the registry's
  /// server.latency.{decode,cluster,encode,total}_ns histograms — the
  /// OpenMetrics `_bucket`/`_percentile` series on /metrics.  Must
  /// outlive the frontend; null disables.
  obs::MetricsRegistry* metrics = nullptr;
  /// Queries whose total span lands among the `slowlog_capacity` slowest
  /// are kept with their stage breakdown (slowlog_json / GET /slowlog).
  std::size_t slowlog_capacity = 32;
};

/// Per-stage merged latency views (exact once serving threads quiesce).
struct StageLatencyBreakdown {
  obs::LatencySnapshot decode;
  obs::LatencySnapshot cluster;  // includes the cluster-mutex wait: that
                                 // queueing delay is real serving latency
  obs::LatencySnapshot encode;
  obs::LatencySnapshot total;
};

/// Monotonic counters of the wire front-end (also exported as server.*
/// metrics when a registry is configured).
struct WireFrontendStats {
  std::uint64_t queries = 0;      // well-formed queries answered
  std::uint64_t udp_queries = 0;  // ... of which arrived over UDP
  std::uint64_t tcp_queries = 0;  // ... of which arrived over TCP
  std::uint64_t formerr = 0;      // undecodable, answered FORMERR
  std::uint64_t notimp = 0;       // non-QUERY opcode, answered NOTIMP
  std::uint64_t dropped = 0;      // unanswerable (short/looping/response)
  std::uint64_t truncated = 0;    // UDP responses cut to TC=1
};

class WireFrontend {
 public:
  /// Serves `clusters`, the day's servers: a query goes to
  /// clusters[shard_of(client, clusters.size())].  They must outlive the
  /// frontend and must not be driven by anyone else while it is running.
  WireFrontend(std::span<RdnsCluster* const> clusters,
               const WireFrontendConfig& config);
  ~WireFrontend();

  WireFrontend(const WireFrontend&) = delete;
  WireFrontend& operator=(const WireFrontend&) = delete;

  /// Binds UDP (and, with tcp_fallback, TCP) and starts serving.  Returns
  /// false with the reason in error().
  bool start();
  void stop();

  bool running() const noexcept { return udp_.running(); }
  std::uint16_t udp_port() const noexcept { return udp_.port(); }
  std::uint16_t tcp_port() const noexcept { return tcp_.port(); }
  std::size_t shard_count() const noexcept { return udp_.shard_count(); }
  const std::string& error() const noexcept { return error_; }

  WireFrontendStats stats() const noexcept;

  /// Whether per-query stage latency is being recorded (metrics wired).
  bool latency_tracked() const noexcept { return total_latency_ != nullptr; }

  /// This frontend's per-stage latency (decode / cluster / encode /
  /// total): the registry histograms minus what they held when the
  /// frontend was built, so a registry shared across served days still
  /// yields per-frontend counts (min/max stay cumulative).  Zeros when
  /// latency_tracked() is false; reads the registry, which must be alive.
  StageLatencyBreakdown stage_latency() const;

  /// No-op: stage latency lands in the registry histograms as it is
  /// recorded, so there is no pending window to fold in.  Kept so callers
  /// that flushed before reading the registry keep compiling.
  void flush_latency_metrics() {}

  /// dnsnoise-slowlog-v1 JSON of the worst-N queries (obs::SlowQueryLog);
  /// wire it to TelemetryServer::set_slowlog_source for GET /slowlog.
  /// `max_entries` caps the emitted entries (0 = all retained).
  std::string slowlog_json(std::size_t max_entries = 0) const {
    return slowlog_.to_json(max_entries);
  }

  /// Drops all recorded slow queries (POST /slowlog/clear).
  void clear_slowlog() { slowlog_.clear(); }

  enum class Transport : std::uint8_t { kUdp, kTcp };

  /// The pure wire-level request handler both transports dispatch to,
  /// exposed for table-driven robustness tests: decode, route, encode.
  /// Returns false to drop (no response).  Thread-safe.
  bool handle_query(std::span<const std::uint8_t> request,
                    const net::UdpPeer& peer,
                    std::vector<std::uint8_t>& response, Transport transport);

 private:
  SimTime live_timestamp() const noexcept;
  void record_stage_latency(std::uint64_t decode_ns, std::uint64_t cluster_ns,
                            std::uint64_t encode_ns, SimTime ts,
                            const std::string& qname);

  std::vector<RdnsCluster*> clusters_;
  WireFrontendConfig config_;
  net::UdpServer udp_;
  net::DnsTcpListener tcp_;
  std::string error_;
  std::mutex cluster_mutex_;
  std::chrono::steady_clock::time_point started_{};
  obs::Heartbeat heartbeat_;

  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> udp_queries_{0};
  std::atomic<std::uint64_t> tcp_queries_{0};
  std::atomic<std::uint64_t> formerr_{0};
  std::atomic<std::uint64_t> notimp_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> truncated_{0};

  // Pre-resolved metric handles (registry lookups are mutex-guarded; the
  // serve path must stay lock-free outside the cluster round trip).
  obs::Counter* queries_metric_ = nullptr;
  obs::Counter* formerr_metric_ = nullptr;
  obs::Counter* notimp_metric_ = nullptr;
  obs::Counter* dropped_metric_ = nullptr;
  obs::Counter* truncated_metric_ = nullptr;
  obs::Counter* tcp_metric_ = nullptr;

  // Per-query stage latency: the registry's server.latency.* histograms
  // (null with metrics off), and what they held at construction.
  obs::LatencyRecorder* decode_latency_ = nullptr;
  obs::LatencyRecorder* cluster_latency_ = nullptr;
  obs::LatencyRecorder* encode_latency_ = nullptr;
  obs::LatencyRecorder* total_latency_ = nullptr;
  StageLatencyBreakdown latency_baseline_;
  obs::SlowQueryLog slowlog_;
};

}  // namespace dnsnoise
