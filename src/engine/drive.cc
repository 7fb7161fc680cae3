#include "engine/drive.h"

#include "obs/heartbeat.h"

namespace dnsnoise {

std::optional<ScenarioScale> warmup_scale(const ScenarioScale& scale,
                                          double volume_fraction) {
  const double volume =
      static_cast<double>(scale.queries_per_day) * volume_fraction;
  // Negated comparisons so NaN fails them too; 2^64 itself does not fit.
  if (!(volume_fraction >= 0.0) || !(volume < 0x1p64)) return std::nullopt;
  ScenarioScale warm = scale;
  warm.queries_per_day = static_cast<std::uint64_t>(volume);
  warm.traffic_stream ^= 0xbeefcafeULL;
  return warm;
}

const char* day_config_error(const PipelineOptions& options,
                             std::size_t threads,
                             std::optional<ScenarioScale>& warm_scale) {
  if (threads == 0) return "engine needs at least one thread";
  if (options.cluster.server_count == 0) {
    return "cluster server_count must be >= 1";
  }
  if (const char* error = cache_config_error(options.cluster.cache)) {
    return error;
  }
  warm_scale.reset();
  if (options.warmup) {
    warm_scale = warmup_scale(options.scale, options.warmup_volume_fraction);
    if (!warm_scale) {
      return "warmup volume fraction must be >= 0 and size a day below "
             "2^64 queries";
    }
  }
  return nullptr;
}

std::uint64_t drive_day(const TrafficGenerator& traffic, const DayPlan& plan,
                        std::size_t index, RdnsCluster& cluster,
                        Question& question, obs::Heartbeat* heartbeat,
                        obs::MetricsRegistry* metrics,
                        obs::TraceCollector* trace) {
  std::uint64_t fed = 0;
  traffic.run_planned_shard(
      plan, index,
      [&cluster, &question, &fed, heartbeat](SimTime ts, std::uint64_t client,
                                             const QuerySpec& query) {
        if (heartbeat != nullptr) heartbeat->tick();
        if (!question.name.assign(query.qname)) {
          return;  // generators only emit valid names; belt and braces
        }
        question.type = query.qtype;
        cluster.query_view(client, question, ts);
        ++fed;
      },
      metrics, trace);
  return fed;
}

}  // namespace dnsnoise
