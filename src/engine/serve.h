// Served mining days (DESIGN.md §14): MiningSession::run()'s day, fed
// from a socket instead of the generator.  The day's servers are the
// engine's shards (engine/drive.h), warmed on the day's pool and tapped
// as run() taps them; a resolver/wire_frontend answers RFC 1035 queries
// over UDP (+ TCP fallback), each through the query_view of the server
// its client hashes to.  finish() merges the shards into capture() and
// runs run()'s tail.  Replaying the engine's shard streams through the
// socket in timestamp order (replay metadata, one lockstep client) yields
// a capture, findings and traffic export byte-identical to run()'s
// (WireGolden.* and TrafficPlaneEngine.* tests).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/shard_merge.h"
#include "engine/thread_pool.h"
#include "miner/pipeline.h"
#include "obs/telemetry_server.h"
#include "resolver/wire_frontend.h"

namespace dnsnoise {

class DayShard;

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
  /// Runs against the scenario's authority before the servers are built —
  /// the hook for registering extra zones (CI smoke zones, demo data).
  std::function<void(SyntheticAuthority&)> authority_hook;
};

/// One mining day whose queries arrive over the socket.  Construct (via
/// MiningSession::serve), send wire queries at udp_port(), then finish().
class ServedMiningDay {
 public:
  /// Builds the scenario and the day's servers, warms them on the day's
  /// pool (server i with the engine's shard-i warmup stream), attaches
  /// their captures, and starts serving.  On failure ok() is false and
  /// error() has the reason; finish() then returns it.  A config run()
  /// refuses fails with run()'s error text before anything is built,
  /// leaving no frontend: udp_port() and tcp_port() read 0 and frontend()
  /// is only valid while ok().  With `telemetry` set, the frontend's
  /// slow-query log is on GET /slowlog until finish or destruction, and
  /// finish() publishes the day's trace on GET /trace.
  ServedMiningDay(ScenarioDate date, const PipelineOptions& options,
                  std::size_t threads, const DnsServerOptions& server,
                  std::shared_ptr<obs::TelemetryServer> telemetry = nullptr);
  ~ServedMiningDay();

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }

  std::uint16_t udp_port() const noexcept {
    return frontend_ != nullptr ? frontend_->udp_port() : 0;
  }
  std::uint16_t tcp_port() const noexcept {
    return frontend_ != nullptr ? frontend_->tcp_port() : 0;
  }
  WireFrontend& frontend() noexcept { return *frontend_; }
  /// The day's capture: the servers' captures merged by finish(); empty
  /// before it.
  DayCapture& capture() noexcept { return capture_; }

  /// Stops serving, ends each server's day, merges their captures into
  /// capture() and mines it with MiningSession::run's tail.  Callable
  /// once; a finished day no longer answers queries.
  MiningDayResult finish();

 private:
  /// Clears the /slowlog source before the frontend it closes over dies.
  void detach_slowlog();

  PipelineOptions options_;
  std::string error_;
  bool finished_ = false;
  std::shared_ptr<obs::TelemetryServer> telemetry_;
  // Declaration order is load-bearing, as members die bottom up: the
  // frontend routes into the shards' clusters (its threads stop first),
  // a shard flushes into its result's capture as it detaches, and the
  // clusters read the scenario's authority.
  std::optional<Scenario> scenario_;
  std::optional<ThreadPool> pool_;  // the day's one pool (empty at 1 thread)
  DayCapture capture_;
  std::vector<ShardResult> results_;
  std::vector<std::unique_ptr<DayShard>> shards_;
  std::unique_ptr<WireFrontend> frontend_;
};

}  // namespace dnsnoise
