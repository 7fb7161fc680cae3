#include "miner/pipeline.h"

#include "obs/heartbeat.h"
#include "obs/json_snapshot.h"
#include "obs/metrics.h"
#include "obs/sketch/traffic_sketch.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace dnsnoise {

ScenarioScale warmup_scale(const ScenarioScale& scale,
                           double volume_fraction) {
  ScenarioScale warm = scale;
  warm.queries_per_day = static_cast<std::uint64_t>(
      static_cast<double>(warm.queries_per_day) * volume_fraction);
  warm.traffic_stream ^= 0xbeefcafeULL;
  return warm;
}

void drive_day(TrafficGenerator& traffic, RdnsCluster& cluster,
               std::int64_t day, obs::Heartbeat* heartbeat) {
  Question question;  // scratch reused across the day (zero-alloc re-parse)
  traffic.run_day(day, [&cluster, &question, heartbeat](
                           SimTime ts, std::uint64_t client,
                           const QuerySpec& query) {
    if (heartbeat != nullptr) heartbeat->tick();
    if (!question.name.assign(query.qname)) {
      return;  // generators only emit valid names; belt and braces
    }
    question.type = query.qtype;
    cluster.query_view(client, question, ts);
  });
}

DnsCacheStats simulate_day(Scenario& scenario, DayCapture& capture,
                           const PipelineOptions& options,
                           std::int64_t day_index) {
  ClusterConfig cluster_config = options.cluster;
  cluster_config.metrics = options.metrics;
  cluster_config.trace = options.trace;
  RdnsCluster cluster(cluster_config, scenario.authority());
  scenario.traffic().set_metrics(options.metrics);
  scenario.traffic().set_trace(options.trace);
  obs::Heartbeat heartbeat(options.metrics, "cluster");
  heartbeat.beat();
  const obs::StageTimer simulate_span(
      options.metrics != nullptr ? &options.metrics->timer("cluster.simulate")
                                 : nullptr);
  obs::TraceSpan simulate_trace(
      options.trace != nullptr
          ? &options.trace->stream(obs::TraceStage::kCluster, 0)
          : nullptr,
      options.trace, obs::TraceOp::kClusterSimulate);
  if (options.warmup) {
    // Warm the caches with a reduced-volume preceding day.
    Scenario warm(scenario.date(),
                  warmup_scale(scenario.scale(),
                               options.warmup_volume_fraction));
    drive_day(warm.traffic(), cluster, day_index - 1, &heartbeat);
  }
  capture.start_day(day_index);
  capture.attach(cluster);
  // The traffic plane rides the cluster's wait-free hook: one cluster,
  // one writer, so the classic path feeds shard 0.
  obs::TrafficSketch* sketch_shard = nullptr;
  if (options.sketch != nullptr) {
    options.sketch->ensure_shards(1);
    sketch_shard = &options.sketch->shard(0);
    cluster.set_traffic_sketch(sketch_shard);
  }
  drive_day(scenario.traffic(), cluster, day_index, &heartbeat);
  // Flush pending tap batches and detach: the capture may outlive this
  // cluster.
  cluster.flush_taps();
  if (sketch_shard != nullptr) cluster.set_traffic_sketch(nullptr);
  capture.detach(cluster);
  return cluster.aggregate_stats();
}

MiningDayResult finish_mining_day(DayCapture& tap, const Scenario& scenario,
                                  const PipelineOptions& options,
                                  const MineFn& mine) {
  obs::MetricsRegistry* const metrics = options.metrics;
  const auto stage_timer = [metrics](const char* name) {
    return metrics != nullptr ? &metrics->timer(name) : nullptr;
  };
  obs::TraceCollector* const trace = options.trace;
  obs::TraceStream* const trace_stream =
      trace != nullptr ? &trace->stream(obs::TraceStage::kMiner, 0) : nullptr;
  obs::Heartbeat heartbeat(metrics, "miner");
  heartbeat.beat();

  MiningDayResult result;
  if (tap.tree().black_count() == 0) {
    result.status = MiningDayStatus::kEmptyCapture;
    result.error =
        "mining day captured no resolved names; check traffic volume";
    if (metrics != nullptr) {
      result.metrics_json = obs::to_json(metrics->snapshot());
    }
    if (trace != nullptr) {
      result.trace_json = obs::to_json(trace->snapshot());
    }
    return result;
  }
  {
    const obs::StageTimer span(stage_timer("miner.label"));
    const obs::TraceSpan tspan(trace_stream, trace, obs::TraceOp::kMinerLabel);
    result.labeled =
        label_zones(tap.tree(), tap.chr(), scenario, options.labeler);
  }
  LadTree own_model(options.model);
  const BinaryClassifier* model = options.pretrained;
  if (model == nullptr) {
    const obs::StageTimer span(stage_timer("miner.train"));
    const obs::TraceSpan tspan(trace_stream, trace, obs::TraceOp::kMinerTrain);
    own_model.train(to_dataset(result.labeled));
    model = &own_model;
  }

  MinerConfig miner_config = options.miner;
  if (miner_config.metrics == nullptr) miner_config.metrics = metrics;
  if (miner_config.trace == nullptr) miner_config.trace = trace;
  const DisposableZoneMiner miner(*model, miner_config);
  heartbeat.beat();
  {
    const obs::StageTimer span(stage_timer("miner.mine"));
    const obs::TraceSpan tspan(trace_stream, trace, obs::TraceOp::kMinerMine);
    result.findings = mine ? mine(miner, tap.tree(), tap.chr())
                           : miner.mine(tap.tree(), tap.chr());
  }
  {
    const obs::StageTimer span(stage_timer("miner.evaluate"));
    const obs::TraceSpan tspan(trace_stream, trace,
                               obs::TraceOp::kMinerEvaluate);
    result.evaluation = evaluate_findings(result.findings, scenario.truth());
  }
  if (metrics != nullptr) {
    metrics->counter("miner.findings").add(result.findings.size());
  }

  heartbeat.beat();
  const FindingIndex index(result.findings);
  DayAggregates& agg = result.aggregates;
  agg.unique_queried = tap.unique_queried();
  agg.unique_resolved = tap.unique_resolved();
  agg.unique_rrs = tap.chr().unique_rrs();
  for (const std::string& name : tap.queried_names()) {
    const auto parsed = DomainName::parse(name);
    if (parsed && index.is_disposable(*parsed)) ++agg.disposable_queried;
  }
  for (const std::string& name : tap.resolved_names()) {
    const auto parsed = DomainName::parse(name);
    if (parsed && index.is_disposable(*parsed)) ++agg.disposable_resolved;
  }
  for (const auto& [key, counts] : tap.chr().entries()) {
    const auto parsed = DomainName::parse(key.name);
    if (parsed && index.is_disposable(*parsed)) ++agg.disposable_rrs;
  }
  // Snapshot last, so the mining-stage timers above are included.
  if (metrics != nullptr) {
    result.metrics_json = obs::to_json(metrics->snapshot());
  }
  if (trace != nullptr) {
    result.trace_json = obs::to_json(trace->snapshot());
  }
  return result;
}

MiningDayResult run_mining_day(ScenarioDate date,
                               const PipelineOptions& options,
                               DayCapture* capture) {
  // /healthz (when a caller serves this registry) reads "active" for the
  // duration of the run.
  const obs::RunActiveScope run_active(options.metrics);

  Scenario scenario(date, options.scale);
  DayCapture local_capture(options.capture);
  DayCapture& tap = capture != nullptr ? *capture : local_capture;
  simulate_day(scenario, tap, options, scenario_day_index(date));
  return finish_mining_day(tap, scenario, options);
}

}  // namespace dnsnoise
