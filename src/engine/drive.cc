#include "engine/drive.h"

#include <utility>

#include "engine/parallel_miner.h"
#include "engine/thread_pool.h"
#include "obs/sketch/traffic_sketch.h"
#include "obs/telemetry_server.h"

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

std::vector<ShardResult> day_shard_results(const PipelineOptions& options) {
  const std::size_t count = options.cluster.server_count;
  if (options.sketch != nullptr) options.sketch->ensure_shards(count);
  std::vector<ShardResult> results;
  results.reserve(count);
  for (std::size_t i = 0; i < count; ++i) results.emplace_back(options.capture);
  return results;
}

void run_shards(const ParallelFor& parallel_for,
                std::vector<ShardResult>& results,
                const std::function<void(std::size_t)>& task) {
  run_parallel(parallel_for, results.size(), [&](std::size_t index) {
    try {
      task(index);
    } catch (const std::exception& e) {
      results[index].error = e.what();
    } catch (...) {
      results[index].error = "unknown shard failure";
    }
  });
}

DayShard::DayShard(const PipelineOptions& options, std::size_t index,
                   const SyntheticAuthority& authority, ShardResult& result)
    : options_(options),
      index_(index),
      result_(result),
      sketch_(options.sketch != nullptr ? &options.sketch->shard(index)
                                        : nullptr),
      heartbeat_(options.metrics, "engine"),
      cluster_(
          [&options, index] {
            ClusterConfig config = options.cluster.for_shard(index);
            config.metrics = options.metrics;
            config.trace = options.trace;
            return config;
          }(),
          authority) {
  heartbeat_.beat();
}

std::uint64_t DayShard::drive(const TrafficGenerator& traffic,
                              const DayPlan& plan) {
  return drive_day(traffic, plan, index_, cluster_, question_, &heartbeat_,
                   started_ ? options_.metrics : nullptr,
                   started_ ? options_.trace : nullptr);
}

void DayShard::start(std::int64_t day_index) {
  result_.capture.start_day(day_index);
  result_.capture.attach(cluster_);
  // The sketch shard reads the measured day's batches beside the capture
  // (single writer: whoever drives this cluster).
  if (sketch_ != nullptr) cluster_.add_tap_observer(sketch_);
  started_ = true;
}

void DayShard::finish() {
  if (!started_) return;
  started_ = false;
  // Each removal flushes the pending batch to every observer first.
  if (sketch_ != nullptr) cluster_.remove_tap_observer(sketch_);
  result_.capture.detach(cluster_);
  result_.counters = {
      .stats = cluster_.aggregate_stats(),
      .below_answers = cluster_.below_answers(),
      .above_answers = cluster_.above_answers(),
      .dnssec_validations = cluster_.dnssec_validations(),
      .dnssec_disposable_validations =
          cluster_.dnssec_disposable_validations(),
      .answered_misses = cluster_.answered_misses(),
      .disposable_answered_misses = cluster_.disposable_answered_misses()};
}

MiningDayResult mine_captured_day(DayCapture& capture, const Scenario& scenario,
                                  const PipelineOptions& options,
                                  ThreadPool* pool,
                                  obs::TelemetryServer* telemetry) {
  const MineFn mine = [&options, pool](const DisposableZoneMiner& miner,
                                       DomainNameTree& tree,
                                       const CacheHitRateTracker& chr) {
    return mine_zones_parallel(miner, tree, chr, *options.miner.psl, pool);
  };
  MiningDayResult result =
      finish_mining_day(capture, scenario, options, mine, on_pool(pool));
  if (telemetry != nullptr && !result.trace_json.empty()) {
    telemetry->publish_trace(result.trace_json);
  }
  if (options.sketch != nullptr && result.ok()) {
    // Today's mined zones classify the next day's traffic live: the
    // paper's protocol (yesterday's model on today's traffic).
    std::vector<std::string> zones;
    zones.reserve(result.findings.size());
    for (const DisposableZoneFinding& finding : result.findings) {
      zones.push_back(finding.zone);
    }
    options.sketch->set_disposable_zones(std::move(zones));
    if (options.metrics != nullptr) {
      options.sketch->publish_gauges(*options.metrics);
    }
  }
  return result;
}

}  // namespace dnsnoise
