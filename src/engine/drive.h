// The shared half of the engine's two day runners, internal to the engine:
// MiningSession and ServedMiningDay refuse a config through one check, and
// MiningSession's shards and ServedMiningDay's in-process warmup both drive
// their clusters through drive_day, so a served day warms exactly like an
// engine day.
#pragma once

#include <cstdint>
#include <optional>

#include "miner/pipeline.h"
#include "resolver/cluster.h"
#include "workload/scenario.h"

namespace dnsnoise::obs {
class Heartbeat;
}  // namespace dnsnoise::obs

namespace dnsnoise {

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

}  // namespace dnsnoise
