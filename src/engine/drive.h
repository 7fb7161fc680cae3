// The feed loop of a simulated day, internal to the engine: MiningSession's
// shards and ServedMiningDay's in-process warmup both drive their clusters
// through drive_day, so a served day warms exactly like an engine day.
#pragma once

#include <cstdint>
#include <optional>

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

/// Why warmup_scale rejects a fraction, for the kInvalidConfig report.
inline constexpr const char* kBadWarmupFraction =
    "warmup volume fraction must be >= 0 and size a day below 2^64 queries";

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
