// End-to-end daily mining pipeline (paper Fig. 10): traffic -> RDNS cluster
// -> monitoring tap -> domain name tree + CHR -> classifier -> ranked
// disposable zones.  This header holds the day's options, its result, and
// the post-capture mining half; MiningSession (engine/parallel_miner.h)
// runs the day.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "miner/algorithm1.h"
#include "miner/day_capture.h"
#include "miner/evaluate.h"
#include "miner/labeler.h"
#include "ml/lad_tree.h"
#include "workload/scenario.h"

namespace dnsnoise::obs {
class MetricsRegistry;
class TraceCollector;
class TrafficSketchPlane;
}  // namespace dnsnoise::obs

namespace dnsnoise {

struct PipelineOptions {
  ScenarioScale scale;
  ClusterConfig cluster;
  LabelerConfig labeler;
  MinerConfig miner;
  LadTreeConfig model;
  /// When set, the day is mined with this already-trained classifier
  /// instead of training a fresh one from the day's labels — the paper's
  /// actual protocol (one model, applied across the 11-month campaign).
  /// Must outlive the call.
  const BinaryClassifier* pretrained = nullptr;
  /// Run a reduced-volume warmup day first so caches reach steady state.
  bool warmup = true;
  double warmup_volume_fraction = 0.5;
  DayCaptureConfig capture;
  /// Opt-in observability sink (DESIGN.md §10), owned by
  /// MiningSession::enable_metrics: when set, every pipeline stage —
  /// workload generation, the RDNS cluster, the engine, the miner stages —
  /// is instrumented into this registry, and the final snapshot lands in
  /// MiningDayResult::metrics_json.  Must outlive the run.  Null (the
  /// default) disables all instrumentation.
  obs::MetricsRegistry* metrics = nullptr;
  /// Opt-in event tracing (DESIGN.md §12), owned by
  /// MiningSession::enable_tracing: when set, every stage records
  /// spans/instants into this collector — head-sampled workload/cluster
  /// per-query spans plus the miner stage spans — and the final trace
  /// snapshot lands in MiningDayResult::trace_json
  /// (schema dnsnoise-trace-v1, obs/trace_export.h).  Must outlive the
  /// run.  Null (the default) disables all tracing; enabled, mining
  /// results are provably unchanged (TracePipeline.* tests).
  obs::TraceCollector* trace = nullptr;
  /// Opt-in streaming traffic introspection (DESIGN.md §17), owned by
  /// MiningSession::enable_traffic_sketch: when set, the measured day's
  /// below-stream answers additionally feed this sketch plane (one shard
  /// per engine shard; shard 0 on a served day's single cluster).  Must
  /// outlive the run.  Null (the default) attaches nothing — zero hot-path
  /// overhead — and findings are byte-identical either way
  /// (TrafficPlane.* tests).
  obs::TrafficSketchPlane* sketch = nullptr;
};

/// Per-date aggregates used by the growth figures (Fig. 13, Tables I/II).
struct DayAggregates {
  std::size_t unique_queried = 0;
  std::size_t unique_resolved = 0;
  std::size_t unique_rrs = 0;
  std::size_t disposable_queried = 0;   // per mined findings
  std::size_t disposable_resolved = 0;
  std::size_t disposable_rrs = 0;
};

/// Status channel for a mining day.  Callers must check ok() before using
/// findings/evaluation/aggregates.
enum class MiningDayStatus {
  kOk = 0,
  /// The day's capture held no resolved names (e.g. a zero-volume scale);
  /// labeling/training on it would silently produce a degenerate model.
  kEmptyCapture,
  /// The requested configuration cannot run (zero threads, zero
  /// servers, ...).
  kInvalidConfig,
};

struct MiningDayResult {
  MiningDayStatus status = MiningDayStatus::kOk;
  /// Human-readable diagnosis when !ok().
  std::string error;
  std::vector<LabeledZone> labeled;
  std::vector<DisposableZoneFinding> findings;
  MiningEvaluation evaluation;
  DayAggregates aggregates;
  /// Final observability snapshot, serialized by obs/json_snapshot.h.
  /// Empty unless the run carried a PipelineOptions::metrics registry (or
  /// MiningSession::enable_metrics).
  std::string metrics_json;
  /// Final trace export (schema dnsnoise-trace-v1, obs/trace_export.h);
  /// loads in Perfetto / chrome://tracing.  Empty unless the run carried a
  /// PipelineOptions::trace collector (or MiningSession::enable_tracing).
  std::string trace_json;

  bool ok() const noexcept { return status == MiningDayStatus::kOk; }
};

/// Alternative mining strategy for finish_mining_day: produce findings from
/// the (tree, chr) pair using `miner`.  Must be output-equivalent to
/// DisposableZoneMiner::mine (the engine supplies a parallel fan-out).
using MineFn = std::function<std::vector<DisposableZoneFinding>(
    const DisposableZoneMiner& miner, DomainNameTree& tree,
    const CacheHitRateTracker& chr)>;

/// The post-capture half of a mining day, shared by MiningSession::run and
/// ServedMiningDay::finish: label zones, train (or reuse
/// options.pretrained), mine via `mine` (serial DisposableZoneMiner::mine
/// when empty), evaluate, and compute aggregates.  Returns kEmptyCapture
/// without mining when `tap` saw no resolved names.  Labeling's feature
/// extraction, the aggregates and the evaluation beside them run through
/// `parallel_for` (the engine's day pool; on the calling thread when it is
/// empty).  Training stays serial.  The result does not depend on it.
MiningDayResult finish_mining_day(DayCapture& tap, const Scenario& scenario,
                                  const PipelineOptions& options,
                                  const MineFn& mine = {},
                                  const ParallelFor& parallel_for = {});

}  // namespace dnsnoise
