// Sharded parallel mining engine — the front door of the daily pipeline.
//
// MiningSession is a fluent builder over PipelineOptions plus a thread
// count, and the one way to run a day (DESIGN.md §9.1): one shard per RDNS
// server (clients reach servers by client hash), each a single-server
// cluster with its own capture, fed from the day's one Scenario and slot
// plan — by the generator in run(), over the socket in serve() — then one
// merge in shard order and the mining tail, all on the day's one pool.
// Shard decomposition is fixed by server_count — threads only schedule
// shards — and per-shard seeds derive from the scenario seed, so
// threads(1) and threads(N) produce byte-identical findings.
//
//   const MiningDayResult result = MiningSession(scale)
//                                      .cluster(cluster_config)
//                                      .threads(4)
//                                      .pretrained(&model)
//                                      .run(ScenarioDate::kSep2011);
//   if (!result.ok()) { /* result.error */ }
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "engine/serve.h"
#include "engine/shard_merge.h"
#include "engine/thread_pool.h"
#include "miner/pipeline.h"
#include "obs/sketch/traffic_sketch.h"

namespace dnsnoise::obs {
class MetricsRegistry;
class TelemetryServer;
class TraceCollector;
}  // namespace dnsnoise::obs

namespace dnsnoise {

/// What the simulation half of an engine day produced (cluster-side view;
/// the capture itself goes to the caller's DayCapture).
struct EngineReport {
  MiningDayStatus status = MiningDayStatus::kOk;
  std::string error;  // non-empty when !ok()
  std::size_t shard_count = 0;
  std::uint64_t queries = 0;  // client queries fed below the cluster
  ShardCounters counters;

  bool ok() const noexcept { return status == MiningDayStatus::kOk; }
};

class MiningSession {
 public:
  explicit MiningSession(const ScenarioScale& scale = {});

  // --- Fluent configuration (each returns *this) ---------------------------
  MiningSession& scale(const ScenarioScale& scale);
  MiningSession& cluster(const ClusterConfig& cluster);
  MiningSession& labeler(const LabelerConfig& labeler);
  MiningSession& miner(const MinerConfig& miner);
  MiningSession& model(const LadTreeConfig& model);
  /// Mine with an already-trained classifier (must outlive run()).
  MiningSession& pretrained(const BinaryClassifier* model);
  /// Worker threads for the shard and classify stages (>= 1; 0 makes
  /// every day runner report kInvalidConfig).  Changes the schedule only,
  /// never the results.
  MiningSession& threads(std::size_t n);
  /// Runs a reduced-volume warmup day through each shard's cache before
  /// the measured day.  A NaN or negative fraction, or one whose volume
  /// does not fit in a uint64_t, makes simulate()/run() return
  /// kInvalidConfig and a served day report it through ok().
  MiningSession& warmup(bool enabled, double volume_fraction = 0.5);
  MiningSession& capture_config(const DayCaptureConfig& config);
  /// Opt-in observability (DESIGN.md §10): creates (or drops) the session's
  /// MetricsRegistry.  Enabled, every stage of simulate()/run() reports
  /// into it and run()'s MiningDayResult carries the JSON snapshot;
  /// disabled (the default), no instrumentation runs at all.  Re-enabling
  /// resets previously collected metrics.
  MiningSession& enable_metrics(bool enabled = true);
  /// Opt-in event tracing (DESIGN.md §12): creates (or drops) the session's
  /// TraceCollector.  Enabled, every stage records spans/instants — the
  /// per-query workload/cluster spans head-sampled 1-in-`sample_every_n`
  /// with deterministic per-shard phases — and run()'s MiningDayResult
  /// carries the dnsnoise-trace-v1 JSON export.  Tracing never changes
  /// findings (TracePipeline.* tests) and threads(N) records the same
  /// trace content as threads(1).  Re-enabling resets collected events.
  MiningSession& enable_tracing(bool enabled = true,
                                std::uint64_t sample_every_n = 64);
  /// Opt-in live telemetry endpoint (DESIGN.md §13): starts a
  /// session-lifetime HTTP server on 127.0.0.1:<port> (0 picks an
  /// ephemeral port, see telemetry()->port()) serving GET /metrics
  /// (OpenMetrics exposition of the live registry), /healthz (per-stage
  /// heartbeat health, 503 on stall while a run is active), and /trace
  /// (the latest frozen trace snapshot, published after each
  /// simulate()/run()).  Auto-enables metrics.  Scrapes snapshot on the
  /// serve thread only; findings are bit-identical with telemetry on or
  /// off (TelemetryServer.* tests).  Port 0 with `enabled=false` stops
  /// and drops the server.
  MiningSession& enable_telemetry(bool enabled = true, std::uint16_t port = 0,
                                  double stall_seconds = 30.0);
  /// Opt-in streaming traffic introspection (DESIGN.md §17): creates (or
  /// drops) the session's TrafficSketchPlane.  Enabled, every engine
  /// shard's below-stream answers feed a per-shard sketch set (heavy
  /// hitters, cardinality, windowed disposable-share); the merged
  /// dnsnoise-traffic-v1 document is served live on GET /traffic when
  /// telemetry is on, traffic.* gauges land in /metrics, and after each
  /// run() the day's mined zones become the plane's live classifier for
  /// the next day.  Findings are byte-identical with the plane on or off
  /// (TrafficPlane.* tests), and threads(N) produces byte-identical
  /// sketch output to threads(1).  Re-enabling resets collected sketches.
  MiningSession& enable_traffic_sketch(
      bool enabled = true, const obs::TrafficSketchConfig& config = {});
  /// Opt-in DNS server mode (DESIGN.md §14): configures serve() to answer
  /// RFC 1035 wire queries on UDP 127.0.0.1:<port> (0 picks an ephemeral
  /// port).  `server` supplies the remaining knobs (socket shards,
  /// batching, TCP fallback for truncated responses, smoke-zone hooks);
  /// only its port field is overridden, by `port`.
  MiningSession& enable_dns_server(bool enabled = true, std::uint16_t port = 0,
                                   const DnsServerOptions& server = {});

  const PipelineOptions& options() const noexcept { return options_; }
  std::size_t thread_count() const noexcept { return threads_; }
  /// The session's live registry — null unless enable_metrics() was called.
  /// Valid until the session is destroyed or metrics are re-/dis-abled.
  obs::MetricsRegistry* metrics() const noexcept { return metrics_.get(); }
  /// The session's live collector — null unless enable_tracing() was
  /// called.  Valid until the session is destroyed or tracing is
  /// re-/dis-abled.
  obs::TraceCollector* trace() const noexcept { return trace_.get(); }
  /// The session's live telemetry server — null unless enable_telemetry()
  /// was called.  Valid until the session is destroyed or telemetry is
  /// re-/dis-abled.
  obs::TelemetryServer* telemetry() const noexcept { return telemetry_.get(); }
  /// The session's live traffic plane — null unless enable_traffic_sketch()
  /// was called.  Valid until the session is destroyed or the plane is
  /// re-/dis-abled.
  obs::TrafficSketchPlane* traffic_sketch() const noexcept {
    return sketch_.get();
  }

  /// Simulates one sharded day into `capture` without mining.  `capture`
  /// is reset exactly once, here, via DayCapture::start_day(day_index) —
  /// the single documented reset point, which clears everything the
  /// capture holds.  Warmup traffic only warms the
  /// caches; the capture sees the measured day alone.  On a non-ok()
  /// report the capture contents are unspecified.
  EngineReport simulate(ScenarioDate date, DayCapture& capture,
                        std::int64_t day_index);
  /// Same, with day_index = scenario_day_index(date).
  EngineReport simulate(ScenarioDate date, DayCapture& capture);

  /// Runs the full mining day (simulate + label/train + parallel classify +
  /// evaluate).  Check result.ok() before using the findings.
  MiningDayResult run(ScenarioDate date);
  /// Same full mining day into a caller-owned capture with an explicit
  /// engine day index (mirrors the simulate() overloads).  Multi-day
  /// campaign drivers use this so each finished day's findings arm the
  /// live traffic classifier while they keep the capture for their own
  /// hourly tables.
  MiningDayResult run(ScenarioDate date, DayCapture& capture,
                      std::int64_t day_index);

  /// Starts the day in server mode: run()'s shards are built and warmed
  /// in-process on the day's pool, then queries arrive over the socket at
  /// ->udp_port(), each to its client's server, and feed the same
  /// tap/metrics path; ->finish() merges and mines the day as run() does.
  /// Null unless enable_dns_server was called; check ->ok() before serving
  /// (a config run() refuses, or a failed socket bind, reports there).
  std::unique_ptr<ServedMiningDay> serve(ScenarioDate date);

 private:
  /// Rebuilds (or stops) the telemetry server against the current
  /// registry; called by enable_telemetry and by enable_metrics when a
  /// server is already running.
  void restart_telemetry();
  /// simulate() into `scenario`, which it builds once the configuration
  /// checks pass, and `pool`, the day's one pool (empty at threads(1)), so
  /// run() mines on the same Scenario and pool.
  EngineReport simulate_day(ScenarioDate date, DayCapture& capture,
                            std::int64_t day_index,
                            std::optional<Scenario>& scenario,
                            std::optional<ThreadPool>& pool);

  PipelineOptions options_;
  std::size_t threads_ = 1;
  bool server_enabled_ = false;
  DnsServerOptions server_options_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<obs::TraceCollector> trace_;
  std::shared_ptr<obs::TrafficSketchPlane> sketch_;
  std::shared_ptr<obs::TelemetryServer> telemetry_;
  std::uint16_t telemetry_port_ = 0;
  double telemetry_stall_seconds_ = 30.0;
};

/// Parallel drop-in for DisposableZoneMiner::mine: mines the effective-2LD
/// zones of `psl` on `pool` (serially on the calling thread when it is
/// null; see DisposableZoneMiner::mine_zones) and sorts with the
/// total-order ranking, inside the engine.classify span.  Output is
/// identical to the serial mine().
std::vector<DisposableZoneFinding> mine_zones_parallel(
    const DisposableZoneMiner& miner, DomainNameTree& tree,
    const CacheHitRateTracker& chr, const PublicSuffixList& psl,
    ThreadPool* pool);
/// Same on `threads` threads: serially on the calling thread for
/// threads <= 1, else on a pool of threads - 1 workers made for the call.
/// Day runners pass their day's pool instead.
std::vector<DisposableZoneFinding> mine_zones_parallel(
    const DisposableZoneMiner& miner, DomainNameTree& tree,
    const CacheHitRateTracker& chr, const PublicSuffixList& psl,
    std::size_t threads);

}  // namespace dnsnoise
