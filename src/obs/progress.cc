#include "obs/progress.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>

#include "obs/metrics.h"

namespace dnsnoise::obs {

ProgressReporter::ProgressReporter(MetricsRegistry& registry,
                                   ProgressConfig config)
    : config_(config),
      answered_(&registry.counter("cluster.below_answers")),
      shards_done_(&registry.timer("engine.shard")),
      out_(config.out != nullptr ? config.out : stderr),
      start_(std::chrono::steady_clock::now()) {
  if (config_.interval_seconds <= 0.0) config_.interval_seconds = 1.0;
  thread_ = std::thread([this] { run(); });
}

ProgressReporter::~ProgressReporter() { stop(); }

void ProgressReporter::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopped_) return;
    stopping_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // The final summary belongs to stop(), not the heartbeat thread: after
  // the join it always runs, exactly once, so session completion flushes
  // a newline-terminated line even when the finish coincides with (or
  // outraces) the last heartbeat tick.
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  print_line(elapsed, /*final_line=*/true);
}

void ProgressReporter::run() {
  const auto interval = std::chrono::duration<double>(config_.interval_seconds);
  std::unique_lock lock(mutex_);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    print_line(elapsed, /*final_line=*/false);
  }
}

void ProgressReporter::print_line(double seconds_since_start,
                                  bool final_line) {
  const std::uint64_t answered = answered_->value();
  const double tick_seconds =
      std::max(seconds_since_start - last_tick_seconds_, 1e-9);
  // Heartbeats show the instantaneous rate; the final summary reports the
  // cumulative average over the whole run.
  const double rate =
      final_line
          ? static_cast<double>(answered) /
                std::max(seconds_since_start, 1e-9)
          : static_cast<double>(answered - last_answered_) / tick_seconds;
  last_answered_ = answered;
  last_tick_seconds_ = seconds_since_start;

  std::string line = "[dnsnoise] ";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                final_line ? "done: %" PRIu64 " queries (avg %.0f/s)"
                           : "%" PRIu64 " queries (%.0f/s)",
                answered, rate);
  line += buf;
  if (config_.shard_count > 0) {
    const std::uint64_t done = std::min<std::uint64_t>(
        shards_done_->snapshot().count, config_.shard_count);
    std::snprintf(buf, sizeof(buf), "  shards %" PRIu64 "/%zu", done,
                  config_.shard_count);
    line += buf;
  }
  if (config_.expected_queries > 0 && answered > 0 && rate > 0.0 &&
      answered < config_.expected_queries) {
    const double eta = static_cast<double>(config_.expected_queries -
                                           answered) /
                       rate;
    std::snprintf(buf, sizeof(buf), "  ETA %.0fs", eta);
    line += buf;
  }
  std::snprintf(buf, sizeof(buf), "  [%.1fs]", seconds_since_start);
  line += buf;
  // \r keeps one live line on a terminal; the final line gets its \n.
  std::fprintf(out_, "\r%-78s%s", line.c_str(), final_line ? "\n" : "");
  std::fflush(out_);
}

}  // namespace dnsnoise::obs
