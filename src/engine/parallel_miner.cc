#include "engine/parallel_miner.h"

#include <atomic>
#include <optional>

#include "engine/drive.h"
#include "engine/thread_pool.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/stage_span.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace dnsnoise {

MiningSession::MiningSession(const ScenarioScale& scale) {
  options_.scale = scale;
}

MiningSession& MiningSession::scale(const ScenarioScale& scale) {
  options_.scale = scale;
  return *this;
}

MiningSession& MiningSession::cluster(const ClusterConfig& cluster) {
  options_.cluster = cluster;
  return *this;
}

MiningSession& MiningSession::labeler(const LabelerConfig& labeler) {
  options_.labeler = labeler;
  return *this;
}

MiningSession& MiningSession::miner(const MinerConfig& miner) {
  options_.miner = miner;
  return *this;
}

MiningSession& MiningSession::model(const LadTreeConfig& model) {
  options_.model = model;
  return *this;
}

MiningSession& MiningSession::pretrained(const BinaryClassifier* model) {
  options_.pretrained = model;
  return *this;
}

MiningSession& MiningSession::threads(std::size_t n) {
  threads_ = n;
  return *this;
}

MiningSession& MiningSession::warmup(bool enabled, double volume_fraction) {
  options_.warmup = enabled;
  options_.warmup_volume_fraction = volume_fraction;
  return *this;
}

MiningSession& MiningSession::capture_config(const DayCaptureConfig& config) {
  options_.capture = config;
  return *this;
}

MiningSession& MiningSession::enable_metrics(bool enabled) {
  metrics_ = enabled ? std::make_shared<obs::MetricsRegistry>() : nullptr;
  options_.metrics = metrics_.get();
  // A running telemetry server holds a reference to the old registry;
  // rebind it (or stop it when metrics just went away).
  if (telemetry_ != nullptr) restart_telemetry();
  return *this;
}

MiningSession& MiningSession::enable_tracing(bool enabled,
                                             std::uint64_t sample_every_n) {
  if (enabled) {
    obs::TraceConfig config;
    config.sample_every_n = sample_every_n;
    trace_ = std::make_shared<obs::TraceCollector>(config);
  } else {
    trace_ = nullptr;
  }
  options_.trace = trace_.get();
  return *this;
}

MiningSession& MiningSession::enable_telemetry(bool enabled,
                                               std::uint16_t port,
                                               double stall_seconds) {
  if (!enabled) {
    telemetry_ = nullptr;
    return *this;
  }
  telemetry_ = nullptr;  // drop first so enable_metrics skips a restart
  telemetry_port_ = port;
  telemetry_stall_seconds_ = stall_seconds;
  if (metrics_ == nullptr) enable_metrics();
  restart_telemetry();
  return *this;
}

MiningSession& MiningSession::enable_traffic_sketch(
    bool enabled, const obs::TrafficSketchConfig& config) {
  sketch_ =
      enabled ? std::make_shared<obs::TrafficSketchPlane>(config) : nullptr;
  options_.sketch = sketch_.get();
  // A running telemetry server serves the old plane on /traffic; rewire
  // it (or drop the endpoint when the plane just went away).
  if (telemetry_ != nullptr) restart_telemetry();
  return *this;
}

MiningSession& MiningSession::enable_dns_server(
    bool enabled, std::uint16_t port, const DnsServerOptions& server) {
  server_enabled_ = enabled;
  server_options_ = server;
  server_options_.port = port;
  return *this;
}

std::unique_ptr<ServedMiningDay> MiningSession::serve(ScenarioDate date) {
  if (!server_enabled_) return nullptr;
  // Handing the telemetry server over publishes the day's slow-query log
  // on GET /slowlog next to /metrics (no-op when telemetry is off).
  return std::make_unique<ServedMiningDay>(date, options_, threads_,
                                           server_options_, telemetry_);
}

void MiningSession::restart_telemetry() {
  telemetry_ = nullptr;  // stop the old server before rebinding the port
  if (metrics_ == nullptr) return;
  obs::TelemetryConfig config;
  config.port = telemetry_port_;
  config.stall_seconds = telemetry_stall_seconds_;
  telemetry_ = std::make_shared<obs::TelemetryServer>(*metrics_, config);
  if (sketch_ != nullptr) {
    // Both callables run on the scrape thread; the shared_ptr copies keep
    // the plane and registry alive even if the session re-enables them
    // while a scrape is in flight.
    const std::shared_ptr<obs::TrafficSketchPlane> plane = sketch_;
    telemetry_->set_traffic_source([plane]() { return plane->to_json(); });
    const std::shared_ptr<obs::MetricsRegistry> registry = metrics_;
    telemetry_->set_metrics_refresh(
        [plane, registry]() { plane->publish_gauges(*registry); });
  }
  telemetry_->start();
}

EngineReport MiningSession::simulate(ScenarioDate date, DayCapture& capture) {
  return simulate(date, capture, scenario_day_index(date));
}

EngineReport MiningSession::simulate(ScenarioDate date, DayCapture& capture,
                                     std::int64_t day_index) {
  std::optional<Scenario> scenario;
  std::optional<ThreadPool> pool;
  return simulate_day(date, capture, day_index, scenario, pool);
}

EngineReport MiningSession::simulate_day(ScenarioDate date, DayCapture& capture,
                                         std::int64_t day_index,
                                         std::optional<Scenario>& scenario,
                                         std::optional<ThreadPool>& pool) {
  EngineReport report;
  const std::size_t shard_count = options_.cluster.server_count;
  report.shard_count = shard_count;
  std::optional<ScenarioScale> warm_scale;
  if (const char* error = day_config_error(options_, threads_, warm_scale)) {
    report.status = MiningDayStatus::kInvalidConfig;
    report.error = error;
    return report;
  }
  if (options_.scale.queries_per_day == 0) {
    report.status = MiningDayStatus::kEmptyCapture;
    report.error = "scenario volume is zero; nothing to capture";
    return report;
  }

  capture.start_day(day_index);
  std::vector<ShardResult> shards = day_shard_results(options_);

  obs::MetricsRegistry* const metrics = metrics_.get();
  obs::TraceCollector* const trace = trace_.get();
  const obs::RunActiveScope run_active(metrics);

  // The day's one pool: threads_ - 1 workers, as the calling thread joins
  // every parallel_for.  run() keeps it for the stages after the merge.
  if (threads_ > 1) pool.emplace(threads_ - 1, metrics);
  const ParallelFor parallel_for = on_pool(pool ? &*pool : nullptr);

  // One read-only Scenario for every shard and the warmup, and one plan
  // per generated day: each slot's client is drawn once, and each shard
  // walks only its own slots.  The last shard out of its warmup frees the
  // warmup day; the measured plan goes when the shards finish, before the
  // merge needs the memory.
  std::optional<TrafficGenerator> warm_traffic;
  std::optional<DayPlan> warm_plan;
  std::optional<DayPlan> plan;
  try {
    scenario.emplace(date, options_.scale);
    if (warm_scale) {
      warm_traffic.emplace(scenario->traffic_for(*warm_scale));
      warm_plan.emplace(
          warm_traffic->plan_day(day_index - 1, shard_count, parallel_for));
    }
    plan.emplace(
        scenario->traffic().plan_day(day_index, shard_count, parallel_for));
  } catch (const std::exception& e) {
    report.status = MiningDayStatus::kInvalidConfig;
    report.error = e.what();
    return report;
  }

  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::size_t> warming{shard_count};
  run_shards(parallel_for, shards, [&](std::size_t index) {
    obs::StageSpan shard_span(
        metrics,
        trace != nullptr ? &trace->stream(obs::TraceStage::kEngine,
                                          static_cast<std::uint32_t>(index))
                         : nullptr,
        trace, obs::TraceOp::kEngineShard);
    shard_span.annotate({}, 0, obs::TraceOutcome::kNone, index);
    DayShard shard(options_, index, scenario->authority(), shards[index]);
    if (warm_plan) {
      // Warm clients hash into the same shard, so its cache warms exactly
      // like its server's would.
      shard.drive(*warm_traffic, *warm_plan);
      // Every shard reads the warmup day before its decrement, so the
      // last one out may free it.
      if (warming.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        warm_plan.reset();
        warm_traffic.reset();
      }
    }
    shard.start(day_index);
    const std::uint64_t fed = shard.drive(scenario->traffic(), *plan);
    shard.finish();
    queries.fetch_add(fed, std::memory_order_relaxed);
    // The gauge repeats the span's own reading, so it equals the shard's
    // engine.shard timer sample and trace span to the nanosecond.
    const std::uint64_t shard_ns = shard_span.stop();
    if (metrics != nullptr) {
      metrics->gauge("engine.shard" + std::to_string(index) + ".wall_seconds")
          .set(static_cast<double>(shard_ns) / 1e9);
    }
  });
  plan.reset();

  std::string merge_error;
  {
    const obs::StageSpan merge_span(
        metrics,
        trace != nullptr ? &trace->stream(obs::TraceStage::kEngine, 0)
                         : nullptr,
        trace, obs::TraceOp::kEngineMerge);
    report.counters = merge_shards(shards, capture, merge_error, parallel_for);
  }
  // Shard workers joined above, so the trace snapshot contract holds.
  if (telemetry_ != nullptr && trace != nullptr) {
    telemetry_->publish_trace(obs::to_json(trace->snapshot()));
  }
  if (!merge_error.empty()) {
    report.status = MiningDayStatus::kInvalidConfig;
    report.error = merge_error;
    return report;
  }
  report.queries = queries.load(std::memory_order_relaxed);
  if (report.queries == 0) {
    report.status = MiningDayStatus::kEmptyCapture;
    report.error = "sharded day produced no queries";
  }
  return report;
}

MiningDayResult MiningSession::run(ScenarioDate date) {
  DayCapture capture(options_.capture);
  return run(date, capture, scenario_day_index(date));
}

MiningDayResult MiningSession::run(ScenarioDate date, DayCapture& capture,
                                   std::int64_t day_index) {
  // Nested with simulate()'s scope (add/sub gauge), so /healthz sees the
  // run as active through the mining stages too.
  const obs::RunActiveScope run_active(metrics_.get());
  std::optional<Scenario> scenario;
  std::optional<ThreadPool> pool;  // the day's one pool, through the tail
  const EngineReport report =
      simulate_day(date, capture, day_index, scenario, pool);
  if (!report.ok()) {
    MiningDayResult result;
    result.status = report.status;
    result.error = report.error;
    return result;
  }
  return mine_captured_day(capture, *scenario, options_,
                           pool ? &*pool : nullptr, telemetry_.get());
}

std::vector<DisposableZoneFinding> mine_zones_parallel(
    const DisposableZoneMiner& miner, DomainNameTree& tree,
    const CacheHitRateTracker& chr, const PublicSuffixList& psl,
    ThreadPool* pool) {
  obs::MetricsRegistry* const metrics = miner.config().metrics;
  obs::TraceCollector* const trace = miner.config().trace;
  const obs::StageSpan classify_span(
      metrics,
      trace != nullptr ? &trace->stream(obs::TraceStage::kEngine, 0)
                       : nullptr,
      trace, obs::TraceOp::kEngineClassify);
  const ParallelFor parallel_for = on_pool(pool);
  return miner.mine_zones(tree, tree.effective_2ld_nodes(psl, parallel_for),
                          chr, parallel_for);
}

std::vector<DisposableZoneFinding> mine_zones_parallel(
    const DisposableZoneMiner& miner, DomainNameTree& tree,
    const CacheHitRateTracker& chr, const PublicSuffixList& psl,
    std::size_t threads) {
  if (threads <= 1) return mine_zones_parallel(miner, tree, chr, psl, nullptr);
  ThreadPool pool(threads - 1, miner.config().metrics);
  return mine_zones_parallel(miner, tree, chr, psl, &pool);
}

}  // namespace dnsnoise
