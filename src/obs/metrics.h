// Pipeline observability: a lock-cheap metrics registry.
//
// The registry is the single sink every pipeline stage reports into —
// workload generation, the RDNS cluster, the sharded engine, and the miner
// each register named metrics under their stage prefix (DESIGN.md §10 owns
// the taxonomy).  Design constraints, in order:
//
//   * Disabled must cost nothing.  Every instrumentation site holds a
//     nullable metric pointer and does nothing when it is null; no clock is
//     read, no atomic touched.  Metrics are opt-in per run
//     (MiningSession::enable_metrics / PipelineOptions::metrics).
//   * Recording is lock-free.  Counter and Gauge are single relaxed
//     atomics; timers and histograms are the one sharded histogram type,
//     obs/latency's LatencyRecorder (1/32-wide buckets, exact
//     count/sum/min/max), recorded per query by the wire front-end and per
//     batch/group/shard by the pipeline stages.  A stage's timer is fed by
//     obs/stage_span's StageSpan, which records the same duration into the
//     stage's trace stream when tracing is on.
//   * Registration is slow-path only.  counter()/gauge()/timer()/histogram()
//     take a mutex and return a stable reference; call them once at
//     attach/construction time and cache the pointer, never per event.
//
// snapshot() freezes the registry into a name-sorted MetricsSnapshot;
// obs/json_snapshot.h serializes that to stable, diff-friendly JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/latency.h"

namespace dnsnoise::obs {

/// Monotonic event count.  Lock-free; safe to add() from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written double (queue depths, per-shard seconds, bench rates).
/// Lock-free; set/add/set_max are safe from any thread.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept;
  /// Raises the gauge to `v` if larger (high-water marks).
  void set_max(double v) noexcept;
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kTimer, kHistogram };

/// One metric frozen out of the registry.  Which fields are meaningful
/// depends on `kind`; unused fields stay zero so snapshots of the same
/// registry state are bitwise identical.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  // counter value; timer/histogram observations
  double value = 0.0;       // gauge value
  /// Timer (nanoseconds) / histogram contents: every exported count, sum,
  /// extreme and percentile is read from here.
  LatencySnapshot distribution;
};

/// Name-sorted freeze of a registry; input to the JSON exporter.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  bool empty() const noexcept { return samples.empty(); }
  /// The sample with `name`, or nullptr.
  const MetricSample* find(std::string_view name) const noexcept;
};

/// Owner of all metrics of one pipeline run.  Thread-safe throughout:
/// registration locks, recording does not (see class comments above).
/// Returned references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric.  Throws std::logic_error when the
  /// name is already registered with a different kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// A histogram of nanosecond spans, exported in seconds (StageSpan
  /// feeds it).
  LatencyRecorder& timer(std::string_view name);
  /// A histogram of unitless values (batch sizes, nanosecond latencies),
  /// exported as recorded.
  LatencyRecorder& histogram(std::string_view name);

  std::size_t size() const;

  /// Freezes every registered metric, sorted by name.
  MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyRecorder> distribution;  // kTimer / kHistogram
  };

  Entry& entry(std::string_view name, MetricKind kind);
  LatencyRecorder& distribution(std::string_view name, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace dnsnoise::obs
