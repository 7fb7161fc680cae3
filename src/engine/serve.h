// Served mining days: the wire front-end wired into the mining engine
// (DESIGN.md §14).
//
// A ServedMiningDay is the socket-fed twin of MiningSession::run(): it
// builds the day's one Scenario and one multi-server RdnsCluster, warms
// server i in-process with the engine's shard-i warmup stream (one warmup
// plan over the same Scenario), attaches the DayCapture tap, then starts
// a resolver/wire_frontend serving RFC 1035
// queries over UDP (+ TCP fallback) instead of driving the generator loop
// itself.  Every served query flows through the same
// RdnsCluster::query_view path, so the batched tap, metrics, and
// heartbeats observe wire traffic exactly as they observe in-process
// traffic.  finish() stops serving, flushes the tap, and runs the standard
// post-capture mining half (finish_mining_day with the engine's parallel
// zone fan-out).
//
// Golden contract: replaying the engine's shard streams of a day through
// the socket, merged in timestamp order — replay metadata attached, one
// lockstep client — yields a capture and findings byte-identical to
// MiningSession::run on the same day (WireGolden.* tests).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "miner/pipeline.h"
#include "obs/telemetry_server.h"
#include "resolver/wire_frontend.h"

namespace dnsnoise::obs {
class TrafficSketch;
}  // namespace dnsnoise::obs

namespace dnsnoise {

/// Server-mode knobs, layered on top of the session's PipelineOptions.
struct DnsServerOptions {
  /// UDP port to bind (0 picks an ephemeral port; read it back from
  /// ServedMiningDay::udp_port).  The TCP fallback listener binds the
  /// same resolved port.
  std::uint16_t port = 0;
  std::string host = "127.0.0.1";
  /// SO_REUSEPORT socket shards, one serving thread each (clamped to 1
  /// on platforms without SO_REUSEPORT).
  std::size_t socket_shards = 1;
  /// Datagrams per recvmmsg/sendmmsg batch on Linux.
  std::size_t batch = 32;
  bool tcp_fallback = true;
  /// Honor replay-meta records (net/udp_client.h).  Defaults on: the
  /// in-repo clients (golden tests, throughput bench) replay captured
  /// timelines.  Turn off when serving real clients, which must not
  /// choose their own timestamps.
  bool allow_replay_meta = true;
  /// UDP responses above this are truncated to TC=1 (classic 512).
  std::size_t max_udp_payload = 512;
  /// Runs against the scenario's authority before the cluster is built —
  /// the hook for registering extra zones (CI smoke zones, demo data).
  std::function<void(SyntheticAuthority&)> authority_hook;
};

/// One mining day whose queries arrive over the socket.  Construct (via
/// MiningSession::serve), send wire queries at udp_port(), then finish().
class ServedMiningDay {
 public:
  /// Builds scenario + cluster, runs the in-process warmup day (server i
  /// gets the engine's shard-i warmup stream), attaches the capture, and
  /// starts serving.  On failure ok() is false and error() has the reason;
  /// finish() then returns a non-ok result.  A bad warmup fraction
  /// (MiningSession::warmup) or cache TTL clamp fails before anything is
  /// built, leaving no frontend: udp_port() and tcp_port() read 0 and
  /// frontend() is only valid while ok().  With `telemetry` set, the
  /// frontend's slow-query log is published on GET /slowlog for the day's
  /// lifetime (detached on finish/destroy).
  ServedMiningDay(ScenarioDate date, const PipelineOptions& options,
                  std::size_t threads, const DnsServerOptions& server,
                  std::shared_ptr<obs::TelemetryServer> telemetry = nullptr);
  ~ServedMiningDay();

  ServedMiningDay(const ServedMiningDay&) = delete;
  ServedMiningDay& operator=(const ServedMiningDay&) = delete;

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }

  std::uint16_t udp_port() const noexcept {
    return frontend_ != nullptr ? frontend_->udp_port() : 0;
  }
  std::uint16_t tcp_port() const noexcept {
    return frontend_ != nullptr ? frontend_->tcp_port() : 0;
  }
  WireFrontend& frontend() noexcept { return *frontend_; }
  DayCapture& capture() noexcept { return capture_; }
  std::int64_t day_index() const noexcept { return day_index_; }

  /// Stops serving, flushes the tap, and mines the captured day (same
  /// post-capture half as MiningSession::run, parallel zone fan-out).
  /// Callable once; a finished day no longer answers queries.
  MiningDayResult finish();

 private:
  /// Clears the /slowlog source before the frontend it closes over dies.
  void detach_slowlog();

  PipelineOptions options_;
  std::size_t threads_;
  std::int64_t day_index_;
  std::string error_;
  bool attached_ = false;
  bool finished_ = false;
  /// Shard 0 of options_.sketch, a tap observer of the cluster while
  /// attached_ holds.
  obs::TrafficSketch* sketch_shard_ = nullptr;
  std::shared_ptr<obs::TelemetryServer> telemetry_;
  // Declaration order is load-bearing: the frontend references the
  // cluster (stop threads first), and the cluster's destructor flushes
  // into still-attached taps (capture must outlive it).
  std::optional<Scenario> scenario_;
  DayCapture capture_;
  std::unique_ptr<RdnsCluster> cluster_;
  std::unique_ptr<WireFrontend> frontend_;
};

}  // namespace dnsnoise
