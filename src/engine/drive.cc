#include "engine/drive.h"

#include "obs/heartbeat.h"

namespace dnsnoise {

ScenarioScale warmup_scale(const ScenarioScale& scale,
                           double volume_fraction) {
  ScenarioScale warm = scale;
  warm.queries_per_day = static_cast<std::uint64_t>(
      static_cast<double>(warm.queries_per_day) * volume_fraction);
  warm.traffic_stream ^= 0xbeefcafeULL;
  return warm;
}

std::uint64_t drive_day(TrafficGenerator& traffic, RdnsCluster& cluster,
                        std::int64_t day,
                        const TrafficGenerator::ShardSpec& shard,
                        Question& question, obs::Heartbeat* heartbeat) {
  std::uint64_t fed = 0;
  traffic.run_day_shard(day, shard, [&cluster, &question, &fed, heartbeat](
                                        SimTime ts, std::uint64_t client,
                                        const QuerySpec& query) {
    if (heartbeat != nullptr) heartbeat->tick();
    if (!question.name.assign(query.qname)) {
      return;  // generators only emit valid names; belt and braces
    }
    question.type = query.qtype;
    cluster.query_view(client, question, ts);
    ++fed;
  });
  return fed;
}

}  // namespace dnsnoise
