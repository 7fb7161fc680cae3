// Pipeline event tracing: sampled per-query spans and instant events.
//
// Where obs/metrics aggregates (DESIGN.md §10), obs/trace records *when*:
// a TraceCollector owns one fixed-capacity ring buffer ("stream") per
// (pipeline stage, shard) pair, and instrumented sites append begin/end
// spans or instant events carrying the stage, shard, a name label, qtype,
// cache outcome, and a numeric id.  Stage spans (engine.shard, miner.mine,
// miner.zone, workload.day, ...) are recorded through obs/stage_span's
// StageSpan, which times the registry timer from the same clock pair;
// per-query spans and instants call TraceStream directly.
// obs/trace_export serializes the frozen collector to Chrome-trace-event /
// Perfetto-compatible JSON (dnsnoise-trace-v1).  Design constraints mirror
// the metrics layer (DESIGN.md §12 owns the details):
//
//   * Disabled must cost nothing.  Every site holds a nullable TraceStream
//     pointer and does nothing when it is null; no clock read, no atomic.
//     Tracing is opt-in per run (MiningSession::enable_tracing /
//     PipelineOptions::trace).
//   * Recording is lock-free.  A stream claims slots with one relaxed
//     fetch_add and writes fixed-size events in place; the ring overwrites
//     its oldest events when full (dropped() counts them) rather than ever
//     blocking or allocating.
//   * Stream acquisition is slow-path only.  stream(stage, shard) takes a
//     mutex and returns a stable reference; resolve it once at
//     attach/construction time, like metric handles.
//   * Sampling is deterministic.  Per-query spans are head-sampled every
//     config().sample_every_n queries with a phase offset derived from the
//     site's existing per-shard seed (TraceSampler), so the sampled set
//     depends only on (seed, shard, query order) — threads(N) records the
//     same trace content as threads(1), and tracing never touches the
//     simulation RNG streams.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace dnsnoise::obs {

/// Pipeline stage owning a stream; exported as the Chrome-trace pid.
enum class TraceStage : std::uint8_t {
  kWorkload = 1,
  kCluster = 2,
  kEngine = 3,
  kMiner = 4,
};

/// Instrumented site; exported as the event name.  Values index
/// trace_op_name(), so keep the two in sync.
enum class TraceOp : std::uint8_t {
  kWorkloadDay = 0,      // one span per generated (shard-)day
  kWorkloadSample,       // sampled query generation span
  kClusterQuery,         // sampled client query span (hit/miss/nx outcome)
  kEngineShard,          // one span per shard simulation
  kEngineMerge,          // shard-merge span
  kEngineClassify,       // parallel classify fan-out span
  kMinerLabel,           // zone labeling span
  kMinerTrain,           // model training span
  kMinerMine,            // whole Algorithm 1 span
  kMinerEvaluate,        // evaluation span
  kMinerZone,            // per effective-2LD zone walk span
  kMinerGroupClassify,   // instant: one (zone, depth) group classified
  kMinerDecolor,         // instant: one group decolored (id = names)
};

/// Static name of `op` ("cluster.query", ...).
std::string_view trace_op_name(TraceOp op) noexcept;

/// Static name of `stage` ("workload", "cluster", "engine", "miner").
std::string_view trace_stage_name(TraceStage stage) noexcept;

/// Cache outcome annotation for query spans.
enum class TraceOutcome : std::uint8_t { kNone = 0, kHit, kMiss, kNxDomain };

/// Sentinel for "no id" (0 is a valid NameId / depth).
inline constexpr std::uint64_t kTraceNoId = ~0ULL;

/// One recorded event.  Fixed size so the ring never allocates; `label`
/// is a truncated NUL-terminated copy (qname, zone) or empty.
struct TraceEvent {
  std::uint64_t ts_ns = 0;   // steady-clock ns since collector epoch
  std::uint64_t dur_ns = 0;  // 0 for instants
  std::uint64_t id = kTraceNoId;
  TraceOp op = TraceOp::kWorkloadDay;
  TraceOutcome outcome = TraceOutcome::kNone;
  std::uint16_t qtype = 0;  // 0 = unset (qtype 0 is reserved in DNS)
  bool instant = false;
  char label[40] = {};

  void set_label(std::string_view text) noexcept {
    const std::size_t n = text.size() < sizeof(label) - 1
                              ? text.size()
                              : sizeof(label) - 1;
    // An empty view may carry a null data(), which memcpy must not see.
    if (n != 0) std::memcpy(label, text.data(), n);
    label[n] = '\0';
  }
};

struct TraceConfig {
  /// Head-sampling period for per-query spans: record 1 of every N.  1
  /// traces every query; sites sample deterministically via TraceSampler.
  std::uint64_t sample_every_n = 64;
  /// Events per (stage, shard) stream; the ring overwrites its oldest
  /// events beyond this (TraceStream::dropped counts them).
  std::size_t ring_capacity = std::size_t{1} << 15;
};

/// One single-purpose ring buffer of events.  record() is wait-free: one
/// relaxed fetch_add to claim a slot, then an in-place write.  Concurrent
/// writers are allowed (the classify fan-out shares the miner stream),
/// with one constraint: two in-flight writers must never be a full ring
/// lap (capacity events) apart, or they write the same physical slot
/// concurrently (a torn event).  Shared-stream sites must therefore keep
/// ring_capacity far above writer count; dropped() > 0 on a shared stream
/// means the ring wrapped and that margin should be checked (the exporter
/// surfaces it as meta.dropped_events, which dnsnoise-inspect summary turns
/// into a warning).  Reads
/// (snapshot) must only happen after writers quiesced — the collector is
/// frozen between pipeline phases, never mid-phase.
class TraceStream {
 public:
  TraceStream(TraceStage stage, std::uint32_t shard, std::size_t capacity)
      : stage_(stage), shard_(shard), ring_(capacity) {}

  TraceStream(const TraceStream&) = delete;
  TraceStream& operator=(const TraceStream&) = delete;

  TraceStage stage() const noexcept { return stage_; }
  std::uint32_t shard() const noexcept { return shard_; }

  /// Appends a completed span.  `start_ns`/`dur_ns` come from the owning
  /// collector's clock (TraceCollector::now_ns).
  void span(TraceOp op, std::uint64_t start_ns, std::uint64_t dur_ns,
            std::string_view label = {}, std::uint16_t qtype = 0,
            TraceOutcome outcome = TraceOutcome::kNone,
            std::uint64_t id = kTraceNoId) noexcept {
    TraceEvent& slot = claim();
    slot.ts_ns = start_ns;
    slot.dur_ns = dur_ns;
    slot.id = id;
    slot.op = op;
    slot.outcome = outcome;
    slot.qtype = qtype;
    slot.instant = false;
    slot.set_label(label);
  }

  /// Appends an instant event.
  void instant(TraceOp op, std::uint64_t ts_ns, std::string_view label = {},
               std::uint64_t id = kTraceNoId) noexcept {
    TraceEvent& slot = claim();
    slot.ts_ns = ts_ns;
    slot.dur_ns = 0;
    slot.id = id;
    slot.op = op;
    slot.outcome = TraceOutcome::kNone;
    slot.qtype = 0;
    slot.instant = true;
    slot.set_label(label);
  }

  /// Events recorded (including overwritten ones).
  std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  /// Events lost to ring wrap-around.
  std::uint64_t dropped() const noexcept {
    const std::uint64_t n = recorded();
    return n > ring_.size() ? n - ring_.size() : 0;
  }

  /// The resident events in record order (oldest surviving first).  Only
  /// valid while no writer is active.
  std::vector<TraceEvent> drain_ordered() const;

 private:
  TraceEvent& claim() noexcept {
    const std::uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    return ring_[static_cast<std::size_t>(slot % ring_.size())];
  }

  TraceStage stage_;
  std::uint32_t shard_;
  std::atomic<std::uint64_t> next_{0};
  std::vector<TraceEvent> ring_;
};

/// Deterministic head sampler for per-query spans: fires on every
/// `every_n`-th call with a phase offset mixed from `seed` (use the site's
/// existing per-shard seed), so the sampled subset is a pure function of
/// (seed, call order) — identical across thread counts and runs.
class TraceSampler {
 public:
  TraceSampler() = default;
  TraceSampler(std::uint64_t every_n, std::uint64_t seed) noexcept
      : every_n_(every_n == 0 ? 1 : every_n),
        counter_(mix64(seed) % (every_n == 0 ? 1 : every_n)) {}

  bool sample() noexcept { return counter_++ % every_n_ == 0; }

 private:
  std::uint64_t every_n_ = 1;
  std::uint64_t counter_ = 0;
};

/// One event frozen out of a stream, with its (stage, shard) coordinates.
struct TraceSnapshotEvent {
  TraceStage stage = TraceStage::kWorkload;
  std::uint32_t shard = 0;
  TraceEvent event;
};

/// Freeze of a collector: all streams' events in (stage, shard, record)
/// order; input to obs/trace_export.
struct TraceSnapshot {
  std::vector<TraceSnapshotEvent> events;
  std::uint64_t dropped = 0;  // total events lost to ring wrap-around
  TraceConfig config;

  bool empty() const noexcept { return events.empty(); }
};

/// Owner of all trace streams of one pipeline run.  Thread-safe
/// throughout: stream acquisition locks, recording does not.  Returned
/// stream references stay valid for the collector's lifetime.
class TraceCollector {
 public:
  explicit TraceCollector(TraceConfig config = {});
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  const TraceConfig& config() const noexcept { return config_; }

  /// Steady-clock nanoseconds since the collector was constructed.
  std::uint64_t now_ns() const noexcept {
    return since_epoch_ns(std::chrono::steady_clock::now());
  }
  /// Nanoseconds from the collector's construction to `t`, a reading
  /// taken at or after it (StageSpan converts its opening read).
  std::uint64_t since_epoch_ns(
      std::chrono::steady_clock::time_point t) const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
            .count());
  }

  /// Finds or creates the stream of (stage, shard).  Slow path (mutex);
  /// resolve once and cache the pointer, like metric handles.
  TraceStream& stream(TraceStage stage, std::uint32_t shard);

  /// A sampler for per-query spans at (stage, shard), phase-seeded from
  /// `seed` (pass the site's existing per-shard seed).
  TraceSampler sampler(std::uint64_t seed) const noexcept {
    return TraceSampler(config_.sample_every_n, seed);
  }

  std::size_t stream_count() const;

  /// Freezes every stream, (stage, shard, record-order)-sorted.  Call only
  /// while no writer is active (between pipeline phases / after run()).
  TraceSnapshot snapshot() const;

 private:
  TraceConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::map<std::pair<std::uint8_t, std::uint32_t>,
           std::unique_ptr<TraceStream>>
      streams_;
};

}  // namespace dnsnoise::obs
