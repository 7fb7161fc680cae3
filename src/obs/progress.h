// Live progress heartbeat for long pipeline runs.
//
// ProgressReporter spawns one background thread that periodically reads a
// handful of pre-resolved MetricsRegistry handles — the queries-answered
// counter and the completed-shard timer — and rewrites a single stderr
// status line: answered queries, instantaneous queries/sec, shard
// completion, and an ETA extrapolated from the configured expected volume.
//
// It adds *no* locks to the hot path: the pipeline keeps hammering its
// relaxed atomics; the reporter only loads them.  Metric handles are
// resolved once in the constructor (the registry's mutex-guarded slow
// path), so no registry lock is touched while the pipeline runs either.
// Concurrent MetricsRegistry::snapshot() calls are likewise safe — see
// ObsConcurrency.* (tests) and DESIGN.md §12.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>

namespace dnsnoise::obs {

class Counter;
class LatencyRecorder;
class MetricsRegistry;

struct ProgressConfig {
  /// Seconds between heartbeat lines (non-positive values fall back to
  /// 1.0; configurable through MiningSession::enable_progress).
  double interval_seconds = 1.0;
  /// Expected total queries below the cluster (day + warmup) for the ETA;
  /// 0 disables the ETA.
  std::uint64_t expected_queries = 0;
  /// Expected shard count for the "shards k/N" field; 0 hides it.
  std::size_t shard_count = 0;
  /// Heartbeat sink; defaults to stderr.  Must outlive the reporter.
  std::FILE* out = nullptr;
};

/// Emits the heartbeat from construction until stop()/destruction.  The
/// final newline-terminated summary line (cumulative totals and average
/// rate, marked "done") is printed by stop() itself *after* the heartbeat
/// thread joined, so it is emitted exactly once on every completion path
/// — including a finish that lands exactly on a heartbeat tick, which
/// previously could race the thread out of its last line.  The registry
/// must outlive the reporter.
class ProgressReporter {
 public:
  ProgressReporter(MetricsRegistry& registry, ProgressConfig config = {});
  ~ProgressReporter();

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Stops the heartbeat thread and flushes the final summary line.
  /// Idempotent: only the first call prints.
  void stop();

 private:
  void run();
  void print_line(double seconds_since_start, bool final_line);

  ProgressConfig config_;
  Counter* answered_;       // cluster.below_answers
  LatencyRecorder* shards_done_;  // engine.shard (count == shards done)
  std::FILE* out_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t last_answered_ = 0;
  double last_tick_seconds_ = 0.0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace dnsnoise::obs
