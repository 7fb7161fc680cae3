// End-to-end daily mining pipeline (paper Fig. 10): traffic -> RDNS cluster
// -> monitoring tap -> domain name tree + CHR -> classifier -> ranked
// disposable zones.  This is the orchestration the examples and benches
// build on.
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
class Heartbeat;
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
  /// When set, run_mining_day mines with this already-trained classifier
  /// instead of training a fresh one from the day's labels — the paper's
  /// actual protocol (one model, applied across the 11-month campaign).
  /// Must outlive the call.
  const BinaryClassifier* pretrained = nullptr;
  /// Run a reduced-volume warmup day first so caches reach steady state.
  bool warmup = true;
  double warmup_volume_fraction = 0.5;
  DayCaptureConfig capture;
  /// Opt-in observability sink (DESIGN.md §10): when set, every pipeline
  /// stage — workload generation, the RDNS cluster, the miner stages — is
  /// instrumented into this registry, and the final snapshot lands in
  /// MiningDayResult::metrics_json.  Must outlive the run.  Null (the
  /// default) disables all instrumentation.
  obs::MetricsRegistry* metrics = nullptr;
  /// Opt-in event tracing (DESIGN.md §12): when set, every stage records
  /// spans/instants into this collector — head-sampled workload/cluster
  /// per-query spans plus the miner stage spans — and the final trace
  /// snapshot lands in MiningDayResult::trace_json
  /// (schema dnsnoise-trace-v1, obs/trace_export.h).  Must outlive the
  /// run.  Null (the default) disables all tracing; enabled, mining
  /// results are provably unchanged (TracePipeline.* tests).
  obs::TraceCollector* trace = nullptr;
  /// Opt-in streaming traffic introspection (DESIGN.md §17): when set,
  /// the measured day's below-stream answers additionally feed this
  /// sketch plane (shard 0 on the classic single-cluster path; one shard
  /// per engine shard in MiningSession).  Must outlive the run.  Null
  /// (the default) attaches nothing — zero hot-path overhead — and
  /// findings are byte-identical either way (TrafficPlane.* tests).
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
  /// The requested configuration cannot run (engine: non-client-hash
  /// balancing with more than one shard, zero threads, ...).
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

/// Runs one full mining day for `date`: simulate, label, train a fresh LAD
/// tree (or apply options.pretrained), run Algorithm 1, evaluate against
/// ground truth, and compute the day's disposable-share aggregates.
/// `capture`, when provided, receives the day's tap data for further
/// analysis.  Returns a non-ok() result instead of mining when the day's
/// capture is empty.
MiningDayResult run_mining_day(ScenarioDate date,
                               const PipelineOptions& options = {},
                               DayCapture* capture = nullptr);

/// The reduced-volume warmup day run before a measured day: the same zone
/// population (same seed), `volume_fraction` of the queries, and a
/// distinct query stream, so disposable names are not re-queried.
ScenarioScale warmup_scale(const ScenarioScale& scale, double volume_fraction);

/// Feeds one generated day of `traffic` into `cluster`.  `heartbeat`
/// (null-gated) ticks once per query, keeping its stage alive on /healthz.
void drive_day(TrafficGenerator& traffic, RdnsCluster& cluster,
               std::int64_t day, obs::Heartbeat* heartbeat = nullptr);

/// Simulates one day of `scenario` traffic into `capture` (with optional
/// warmup day at reduced volume), without mining.  Returns the cluster's
/// aggregate cache stats.
///
/// `capture` is taken by reference and reset exactly once, here, via
/// DayCapture::start_day(day_index) — the single documented reset point:
/// per-day state (tree, CHR, series, name sets, fpDNS) is cleared, the
/// cumulative rpDNS store is kept.  Warmup traffic runs before the reset,
/// so it warms the caches without polluting the capture.
DnsCacheStats simulate_day(Scenario& scenario, DayCapture& capture,
                           const PipelineOptions& options,
                           std::int64_t day_index);

/// Alternative mining strategy for finish_mining_day: produce findings from
/// the (tree, chr) pair using `miner`.  Must be output-equivalent to
/// DisposableZoneMiner::mine (the engine supplies a parallel fan-out).
using MineFn = std::function<std::vector<DisposableZoneFinding>(
    const DisposableZoneMiner& miner, DomainNameTree& tree,
    const CacheHitRateTracker& chr)>;

/// The post-capture half of a mining day, shared by run_mining_day and the
/// sharded engine: label zones, train (or reuse options.pretrained), mine
/// via `mine` (serial DisposableZoneMiner::mine when empty), evaluate, and
/// compute aggregates.  Returns kEmptyCapture without mining when `tap`
/// saw no resolved names.
MiningDayResult finish_mining_day(DayCapture& tap, const Scenario& scenario,
                                  const PipelineOptions& options,
                                  const MineFn& mine = {});

}  // namespace dnsnoise
