// Live telemetry endpoint for long mining runs (DESIGN.md §13).
//
// Where obs/json_snapshot and obs/trace_export make a run inspectable
// *after* it finishes, TelemetryServer makes it observable *while it
// mines*: a net/HttpListener accept thread serves
//
//   GET /metrics  OpenMetrics exposition of a live MetricsRegistry
//                 snapshot (obs/openmetrics; counters, gauges, timers,
//                 native histogram series with percentile gauges),
//   GET /healthz  JSON health document (schema dnsnoise-health-v1):
//                 per-stage liveness from the obs.heartbeat.* gauges,
//                 HTTP 200 when healthy/idle, 503 when a stage stalled
//                 while obs.run_active is 1,
//   GET /trace    the most recently published dnsnoise-trace-v1 JSON
//                 (publish_trace), 404 before the first snapshot,
//   GET /slowlog  the live dnsnoise-slowlog-v1 document of the wired
//                 slow-query log (set_slowlog_source), 404 when no
//                 source is attached; ?n=N caps the returned entries,
//   POST /slowlog/clear
//                 drops all recorded slow queries (and the admission
//                 threshold) of the wired log,
//   GET /traffic  the live dnsnoise-traffic-v1 document of the wired
//                 traffic sketch plane (set_traffic_source), 404 when
//                 no plane is attached,
//   GET /         a plain-text index of the above.
//
// Query strings are parsed strictly: a malformed query (a segment
// without '=', an empty key, or an invalid value for a recognized
// parameter) is a 400, never silently ignored.  Well-formed parameters
// an endpoint does not recognize are ignored, so scrapers may append
// ?format=... style noise.
//
// Obs contract: strictly opt-in (MiningSession::enable_telemetry, or a
// caller-owned server over a registry), zero hot-path overhead — every
// snapshot is taken on the scrape thread via the registry's established
// concurrent-snapshot path, no new locks touch the query path, and
// mining findings are bit-identical with the server on or off
// (TelemetryPipeline.* tests).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/http_listener.h"
#include "obs/metrics.h"

namespace dnsnoise::obs {

struct TelemetryConfig {
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// /healthz flags a stage as stalled when its heartbeat is older than
  /// this while a run is active.
  double stall_seconds = 30.0;
  /// Constant labels stamped on every exported OpenMetrics series.
  std::map<std::string, std::string> labels;
};

/// One stage row of the health document.
struct StageHealth {
  std::string stage;
  double age_seconds = 0.0;
  bool ok = true;
};

/// The /healthz payload, also available to code via render_health().
struct HealthDocument {
  bool healthy = true;
  bool run_active = false;
  std::vector<StageHealth> stages;
  std::string json;  // schema dnsnoise-health-v1
};

/// The GET /slowlog + POST /slowlog/clear wiring.  Both callables run on
/// the scrape thread, must be thread-safe, and must stay valid until the
/// source is replaced — owners with a shorter lifetime than the server
/// (a served day's wire frontend) must detach on teardown.
struct SlowlogSource {
  /// Renders the dnsnoise-slowlog-v1 document, returning at most
  /// `max_entries` entries (0 = no cap).
  std::function<std::string(std::size_t max_entries)> render;
  /// Drops all recorded entries (POST /slowlog/clear); optional — when
  /// absent the endpoint answers 404.
  std::function<void()> clear;
};

/// Pure health evaluation (unit-testable without sockets): derives
/// per-stage ages from the obs.heartbeat.* gauges in `snapshot` against
/// `now_seconds` (pass heartbeat_clock_seconds()).  Freshness is only
/// enforced while obs.run_active is 1 — an idle pipeline is healthy by
/// definition, reported as status "idle".
HealthDocument render_health(const MetricsSnapshot& snapshot,
                             double now_seconds, double stall_seconds);

class TelemetryServer {
 public:
  /// The registry must outlive the server.
  explicit TelemetryServer(const MetricsRegistry& registry,
                           TelemetryConfig config = {});
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds and starts serving.  False (reason in error()) when the port
  /// is unavailable; the pipeline then simply runs unobserved.
  bool start();
  void stop();

  bool running() const noexcept { return listener_.running(); }
  std::uint16_t port() const noexcept { return listener_.port(); }
  const std::string& error() const noexcept { return listener_.error(); }
  const TelemetryConfig& config() const noexcept { return config_; }

  /// Publishes a frozen dnsnoise-trace-v1 document for GET /trace.
  /// Trace snapshots must be taken between pipeline phases (the
  /// TraceCollector contract), so the session pushes them here instead
  /// of the scrape thread pulling mid-run.
  void publish_trace(std::string trace_json);

  /// Attaches (or, with an empty render, detaches) the /slowlog source.
  void set_slowlog_source(SlowlogSource source);

  /// Attaches (or, with nullptr, detaches) the GET /traffic source —
  /// TrafficSketchPlane::to_json of the live plane.  Same contract as
  /// the slowlog source: runs on the scrape thread, must be thread-safe
  /// and valid until replaced.
  void set_traffic_source(std::function<std::string()> source);

  /// Hook run on the scrape thread just before every /metrics snapshot;
  /// the session wires TrafficSketchPlane::publish_gauges here so the
  /// traffic.* gauges are fresh at scrape time without any hot-path
  /// publication.  nullptr detaches.
  void set_metrics_refresh(std::function<void()> refresh);

  /// Serves one request; exposed for tests (the listener calls this).
  net::HttpResponse handle(const net::HttpRequest& request) const;

 private:
  const MetricsRegistry& registry_;
  TelemetryConfig config_;
  net::HttpListener listener_;
  mutable std::mutex trace_mutex_;
  std::string trace_json_;
  mutable std::mutex slowlog_mutex_;
  SlowlogSource slowlog_source_;
  mutable std::mutex traffic_mutex_;
  std::function<std::string()> traffic_source_;
  mutable std::mutex refresh_mutex_;
  std::function<void()> metrics_refresh_;
};

}  // namespace dnsnoise::obs
