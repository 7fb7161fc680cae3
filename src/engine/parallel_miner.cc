#include "engine/parallel_miner.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>

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

void MiningSession::publish_trace_snapshot() {
  if (telemetry_ == nullptr || trace_ == nullptr) return;
  telemetry_->publish_trace(obs::to_json(trace_->snapshot()));
}

EngineReport MiningSession::simulate(ScenarioDate date, DayCapture& capture) {
  return simulate(date, capture, scenario_day_index(date));
}

EngineReport MiningSession::simulate(ScenarioDate date, DayCapture& capture,
                                     std::int64_t day_index) {
  std::optional<Scenario> scenario;
  return simulate_day(date, capture, day_index, scenario);
}

EngineReport MiningSession::simulate_day(ScenarioDate date, DayCapture& capture,
                                         std::int64_t day_index,
                                         std::optional<Scenario>& scenario) {
  EngineReport report;
  const std::size_t shard_count = options_.cluster.server_count;
  report.shard_count = shard_count;
  report.threads = threads_;
  if (threads_ == 0) {
    report.status = MiningDayStatus::kInvalidConfig;
    report.error = "engine needs at least one thread";
    return report;
  }
  if (shard_count == 0) {
    report.status = MiningDayStatus::kInvalidConfig;
    report.error = "cluster server_count must be >= 1";
    return report;
  }
  if (const char* error = cache_config_error(options_.cluster.cache)) {
    report.status = MiningDayStatus::kInvalidConfig;
    report.error = error;
    return report;
  }
  std::optional<ScenarioScale> warm_scale;
  if (options_.warmup) {
    warm_scale = warmup_scale(options_.scale, options_.warmup_volume_fraction);
    if (!warm_scale) {
      report.status = MiningDayStatus::kInvalidConfig;
      report.error = kBadWarmupFraction;
      return report;
    }
  }
  if (options_.scale.queries_per_day == 0) {
    report.status = MiningDayStatus::kEmptyCapture;
    report.error = "scenario volume is zero; nothing to capture";
    return report;
  }

  capture.start_day(day_index);
  // One sketch shard per engine shard, created up front so run_shard only
  // reads stable references (plane growth is not hot-path safe).
  obs::TrafficSketchPlane* const sketch = sketch_.get();
  if (sketch != nullptr) sketch->ensure_shards(shard_count);

  std::vector<ShardResult> shards;
  shards.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards.emplace_back(options_.capture);
  }

  obs::MetricsRegistry* const metrics = metrics_.get();
  obs::TraceCollector* const trace = trace_.get();
  // All shards beat the one "engine" gauge (atomic store, last writer
  // wins) — any progress keeps the stage fresh on /healthz.
  obs::Gauge* const engine_heartbeat =
      metrics != nullptr ? &obs::heartbeat_gauge(*metrics, "engine") : nullptr;
  const obs::RunActiveScope run_active(metrics);

  // threads_ - 1 pool workers: the calling thread participates in
  // parallel_for, so exactly threads_ workers touch shard state.
  std::optional<ThreadPool> pool;
  if (threads_ > 1 && shard_count > 1) {
    pool.emplace(std::min(threads_ - 1, shard_count - 1), metrics);
  }
  TrafficGenerator::ParallelFor on_pool;
  if (pool) {
    on_pool = [&pool](std::size_t n,
                      const std::function<void(std::size_t)>& body) {
      pool->parallel_for(n, body);
    };
  }

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
          warm_traffic->plan_day(day_index - 1, shard_count, on_pool));
    }
    plan.emplace(scenario->traffic().plan_day(day_index, shard_count, on_pool));
  } catch (const std::exception& e) {
    report.status = MiningDayStatus::kInvalidConfig;
    report.error = e.what();
    return report;
  }

  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::size_t> warming{shard_count};
  const auto run_shard = [&](std::size_t index) {
    ShardResult& shard = shards[index];
    try {
      obs::StageSpan shard_span(
          metrics,
          trace != nullptr
              ? &trace->stream(obs::TraceStage::kEngine,
                               static_cast<std::uint32_t>(index))
              : nullptr,
          trace, obs::TraceOp::kEngineShard);
      shard_span.annotate({}, 0, obs::TraceOutcome::kNone, index);
      ClusterConfig shard_config = options_.cluster.for_shard(index);
      shard_config.metrics = metrics;
      shard_config.trace = trace;
      RdnsCluster cluster(shard_config, scenario->authority());
      Question question;  // parse scratch reused across the shard's days
      obs::Heartbeat heartbeat(engine_heartbeat);
      heartbeat.beat();
      if (warm_plan) {
        // A reduced-volume preceding day, shard filtered: warm clients
        // hash into the same partition, so each shard cache warms exactly
        // like its server would.  Its queries are not part of the day.
        drive_day(*warm_traffic, *warm_plan, index, cluster, question,
                  &heartbeat);
        // Every shard reads the warmup day before its decrement, so the
        // last one out may free it.
        if (warming.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          warm_plan.reset();
          warm_traffic.reset();
        }
      }
      shard.capture.start_day(day_index);
      shard.capture.attach(cluster);
      // The traffic plane observes the measured day only (not warmup),
      // one sketch shard per engine shard — single writer, this thread —
      // reading the same tap batches as the capture.
      obs::TrafficSketch* const sketch_shard =
          sketch != nullptr ? &sketch->shard(index) : nullptr;
      if (sketch_shard != nullptr) cluster.add_tap_observer(sketch_shard);
      // Instrument the measured day only; the warmup fed uninstrumented.
      const std::uint64_t fed =
          drive_day(scenario->traffic(), *plan, index, cluster, question,
                    &heartbeat, metrics, trace);
      cluster.flush_taps();
      if (sketch_shard != nullptr) cluster.remove_tap_observer(sketch_shard);
      shard.capture.detach(cluster);
      shard.counters.stats = cluster.aggregate_stats();
      shard.counters.below_answers = cluster.below_answers();
      shard.counters.above_answers = cluster.above_answers();
      shard.counters.dnssec_validations = cluster.dnssec_validations();
      shard.counters.dnssec_disposable_validations =
          cluster.dnssec_disposable_validations();
      shard.counters.answered_misses = cluster.answered_misses();
      shard.counters.disposable_answered_misses =
          cluster.disposable_answered_misses();
      queries.fetch_add(fed, std::memory_order_relaxed);
      // The gauge repeats the span's own reading, so it equals the shard's
      // engine.shard timer sample and trace span to the nanosecond.
      const std::uint64_t shard_ns = shard_span.stop();
      if (metrics != nullptr) {
        metrics->gauge("engine.shard" + std::to_string(index) +
                       ".wall_seconds")
            .set(static_cast<double>(shard_ns) / 1e9);
      }
    } catch (const std::exception& e) {
      shard.error = e.what();
    } catch (...) {
      shard.error = "unknown shard failure";
    }
  };

  if (pool) {
    pool->parallel_for(shard_count, run_shard);
  } else {
    for (std::size_t i = 0; i < shard_count; ++i) run_shard(i);
  }
  plan.reset();

  std::string merge_error;
  {
    const obs::StageSpan merge_span(
        metrics,
        trace != nullptr ? &trace->stream(obs::TraceStage::kEngine, 0)
                         : nullptr,
        trace, obs::TraceOp::kEngineMerge);
    report.counters = merge_shards(shards, capture, merge_error);
  }
  // Shard workers joined above, so the trace snapshot contract holds.
  publish_trace_snapshot();
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
  const EngineReport report = simulate_day(date, capture, day_index, scenario);
  if (!report.ok()) {
    MiningDayResult result;
    result.status = report.status;
    result.error = report.error;
    return result;
  }
  const MineFn mine = [this](const DisposableZoneMiner& miner,
                             DomainNameTree& tree,
                             const CacheHitRateTracker& chr) {
    return mine_zones_parallel(miner, tree, chr, *options_.miner.psl,
                               threads_);
  };
  MiningDayResult result =
      finish_mining_day(capture, *scenario, options_, mine);
  // finish_mining_day already froze the trace into result.trace_json;
  // serve that exact document on /trace.
  if (telemetry_ != nullptr && !result.trace_json.empty()) {
    telemetry_->publish_trace(result.trace_json);
  }
  if (sketch_ != nullptr && result.ok()) {
    // Today's mined zones become the live classifier for the next day —
    // the paper's protocol (yesterday's model applied to today's traffic)
    // carried into the streaming plane.
    std::vector<std::string> zones;
    zones.reserve(result.findings.size());
    for (const DisposableZoneFinding& finding : result.findings) {
      zones.push_back(finding.zone);
    }
    sketch_->set_disposable_zones(std::move(zones));
    if (metrics_ != nullptr) sketch_->publish_gauges(*metrics_);
  }
  return result;
}

std::vector<DisposableZoneFinding> mine_zones_parallel(
    const DisposableZoneMiner& miner, DomainNameTree& tree,
    const CacheHitRateTracker& chr, const PublicSuffixList& psl,
    std::size_t threads) {
  obs::MetricsRegistry* const metrics = miner.config().metrics;
  obs::TraceCollector* const trace = miner.config().trace;
  const obs::StageSpan classify_span(
      metrics,
      trace != nullptr ? &trace->stream(obs::TraceStage::kEngine, 0)
                       : nullptr,
      trace, obs::TraceOp::kEngineClassify);
  const std::vector<NameId> roots = tree.effective_2ld_nodes(psl);
  std::vector<std::vector<DisposableZoneFinding>> outs(roots.size());
  const auto mine_root = [&](std::size_t i) {
    // Effective-2LD subtrees are disjoint and decolor writes only the
    // node's own black byte, so concurrent zone walks never share mutable
    // state.
    miner.mine_zone(tree, roots[i], chr, outs[i]);
  };
  if (threads > 1 && roots.size() > 1) {
    ThreadPool pool(std::min(threads - 1, roots.size() - 1), metrics);
    pool.parallel_for(roots.size(), mine_root);
  } else {
    for (std::size_t i = 0; i < roots.size(); ++i) mine_root(i);
  }
  std::vector<DisposableZoneFinding> findings;
  for (std::vector<DisposableZoneFinding>& out : outs) {
    for (DisposableZoneFinding& finding : out) {
      findings.push_back(std::move(finding));
    }
  }
  DisposableZoneMiner::sort_findings(findings);
  return findings;
}

}  // namespace dnsnoise
