// The shared half of the engine's two day runners, internal to the engine:
// MiningSession::run and ServedMiningDay make the same config check, run
// one DayShard per RDNS server (fed by drive_day, or by the wire
// frontend) and end in the same tail.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/shard_merge.h"
#include "miner/pipeline.h"
#include "obs/heartbeat.h"
#include "resolver/cluster.h"
#include "workload/scenario.h"

namespace dnsnoise::obs {
class TelemetryServer;
class TrafficSketch;
}  // namespace dnsnoise::obs

namespace dnsnoise {

class ThreadPool;

/// The reduced-volume warmup day run before a measured day: the same zone
/// population (same seed), `volume_fraction` of the queries, and a
/// distinct query stream, so disposable names are not re-queried.  Empty
/// when the fraction is NaN or negative, or the volume does not fit in a
/// uint64_t.
std::optional<ScenarioScale> warmup_scale(const ScenarioScale& scale,
                                          double volume_fraction);

/// The checks both day runners make before building anything: at least
/// one thread and one server, a valid cache TTL clamp and, with warmup on,
/// a warmup fraction warmup_scale accepts.  Returns the kInvalidConfig
/// error text, or null; `warm_scale` then holds the warmup day's scale
/// (empty with warmup off).
const char* day_config_error(const PipelineOptions& options,
                             std::size_t threads,
                             std::optional<ScenarioScale>& warm_scale);

/// Feeds shard `index` of a planned day of `traffic` into `cluster` and
/// returns the number of queries fed.  `question` is the parse scratch;
/// passing the same one to a warmup day and its measured day keeps its
/// buffers grown.  `heartbeat` (null-gated) ticks once per generated query,
/// keeping its stage alive on /healthz.  `metrics` and `trace` instrument
/// the generator (TrafficGenerator::run_planned_shard).
std::uint64_t drive_day(const TrafficGenerator& traffic, const DayPlan& plan,
                        std::size_t index, RdnsCluster& cluster,
                        Question& question, obs::Heartbeat* heartbeat,
                        obs::MetricsRegistry* metrics = nullptr,
                        obs::TraceCollector* trace = nullptr);

/// One ShardResult per server, and options.sketch grown to one sketch
/// shard per server up front (plane growth is not hot-path safe).
std::vector<ShardResult> day_shard_results(const PipelineOptions& options);

/// Runs task(i) for each slot of `results` on `parallel_for`, one pool
/// task per shard.  Pool tasks must not throw, so what task(i) throws
/// lands in results[i].error.
void run_shards(const ParallelFor& parallel_for,
                std::vector<ShardResult>& results,
                const std::function<void(std::size_t)>& task);

/// RDNS server `index` of a day: a single-server RdnsCluster from
/// options.cluster.for_shard(index) with the day's metrics and trace, over
/// the day's authority, tapped during the measured day by `result`'s
/// capture and sketch shard `index`, and beating the "engine" heartbeat.
/// The options, the authority and `result` must outlive it.
class DayShard {
 public:
  DayShard(const PipelineOptions& options, std::size_t index,
           const SyntheticAuthority& authority, ShardResult& result);
  ~DayShard() { finish(); }

  /// drive_day of shard `index` of `plan` with the shard's parse scratch:
  /// before start() a warmup, after it the measured day, instrumented.
  std::uint64_t drive(const TrafficGenerator& traffic, const DayPlan& plan);
  /// Resets the capture for `day_index` and attaches it and the sketch.
  void start(std::int64_t day_index);
  /// Detaches both observers, which take the pending batch, and fills
  /// result.counters; a no-op unless started.
  void finish();

  RdnsCluster& cluster() noexcept { return cluster_; }

 private:
  const PipelineOptions& options_;
  std::size_t index_;
  ShardResult& result_;
  obs::TrafficSketch* sketch_;
  obs::Heartbeat heartbeat_;
  RdnsCluster cluster_;
  Question question_;
  bool started_ = false;
};

/// The tail of every day: mines `capture` through finish_mining_day on
/// `pool` (serially when null), publishes the trace on `telemetry`'s
/// /trace, and arms options.sketch's live classifier with the findings.
MiningDayResult mine_captured_day(DayCapture& capture, const Scenario& scenario,
                                  const PipelineOptions& options,
                                  ThreadPool* pool,
                                  obs::TelemetryServer* telemetry);

}  // namespace dnsnoise
