#include "miner/pipeline.h"

#include "obs/heartbeat.h"
#include "obs/json_snapshot.h"
#include "obs/metrics.h"
#include "obs/stage_span.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace dnsnoise {

namespace {

/// The day's unique counts and the disposable share of each, per the
/// findings' cover.
DayAggregates aggregate(const DayCapture& tap,
                        std::span<const DisposableZoneFinding> findings,
                        const ParallelFor& parallel_for) {
  DayAggregates agg;
  agg.unique_queried = tap.unique_queried();
  agg.unique_resolved = tap.unique_resolved();
  agg.unique_rrs = tap.chr().unique_rrs();
  const FindingCover cover(tap.tree(), findings, parallel_for);
  run_parallel(parallel_for, 3, [&](std::size_t list) {
    if (list == 0) {
      agg.disposable_queried = cover.count(tap.queried_names());
    } else if (list == 1) {
      agg.disposable_resolved = cover.count(tap.resolved_names());
    } else {
      for (const auto& [key, counts] : tap.chr().entries()) {
        if (cover.covers(key.owner)) ++agg.disposable_rrs;
      }
    }
  });
  return agg;
}

}  // namespace

MiningDayResult finish_mining_day(DayCapture& tap, const Scenario& scenario,
                                  const PipelineOptions& options,
                                  const MineFn& mine,
                                  const ParallelFor& parallel_for) {
  obs::MetricsRegistry* const metrics = options.metrics;
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
    const obs::StageSpan span(metrics, trace_stream, trace,
                              obs::TraceOp::kMinerLabel);
    result.labeled = label_zones(tap.tree(), tap.chr(), scenario,
                                 options.labeler, parallel_for);
  }
  LadTree own_model(options.model);
  const BinaryClassifier* model = options.pretrained;
  if (model == nullptr) {
    const obs::StageSpan span(metrics, trace_stream, trace,
                              obs::TraceOp::kMinerTrain);
    own_model.train(to_dataset(result.labeled));
    model = &own_model;
  }

  MinerConfig miner_config = options.miner;
  if (miner_config.metrics == nullptr) miner_config.metrics = metrics;
  if (miner_config.trace == nullptr) miner_config.trace = trace;
  const DisposableZoneMiner miner(*model, miner_config);
  heartbeat.beat();
  {
    const obs::StageSpan span(metrics, trace_stream, trace,
                              obs::TraceOp::kMinerMine);
    result.findings = mine ? mine(miner, tap.tree(), tap.chr())
                           : miner.mine(tap.tree(), tap.chr());
  }
  heartbeat.beat();
  // The evaluation and the aggregates read only the findings and the
  // capture, so they run side by side.
  run_parallel(parallel_for, 2, [&](std::size_t part) {
    if (part == 0) {
      const obs::StageSpan span(metrics, trace_stream, trace,
                                obs::TraceOp::kMinerEvaluate);
      result.evaluation = evaluate_findings(result.findings, scenario.truth());
    } else {
      result.aggregates = aggregate(tap, result.findings, parallel_for);
    }
  });
  if (metrics != nullptr) {
    metrics->counter("miner.findings").add(result.findings.size());
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

}  // namespace dnsnoise
