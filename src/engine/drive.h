// The feed loop of a simulated day, internal to the engine: MiningSession's
// shards and ServedMiningDay's in-process warmup both drive their clusters
// through drive_day, so a served day warms exactly like an engine day.
#pragma once

#include <cstdint>

#include "resolver/cluster.h"
#include "workload/scenario.h"

namespace dnsnoise::obs {
class Heartbeat;
}  // namespace dnsnoise::obs

namespace dnsnoise {

/// The reduced-volume warmup day run before a measured day: the same zone
/// population (same seed), `volume_fraction` of the queries, and a
/// distinct query stream, so disposable names are not re-queried.
ScenarioScale warmup_scale(const ScenarioScale& scale, double volume_fraction);

/// Feeds `shard` of one generated day of `traffic` into `cluster` and
/// returns the number of queries fed.  `question` is the parse scratch;
/// passing the same one to a warmup day and its measured day keeps its
/// buffers grown.  `heartbeat` (null-gated) ticks once per generated query,
/// keeping its stage alive on /healthz.
std::uint64_t drive_day(TrafficGenerator& traffic, RdnsCluster& cluster,
                        std::int64_t day,
                        const TrafficGenerator::ShardSpec& shard,
                        Question& question, obs::Heartbeat* heartbeat);

}  // namespace dnsnoise
