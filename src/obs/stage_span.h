// One RAII span per pipeline stage, recorded into both observability sinks
// from one pair of clock reads (DESIGN.md §10.1).
//
// A stage boundary (engine.shard, miner.mine, ...) is a registry timer and a
// trace span at once.  StageSpan reads the steady clock when it opens and
// when it closes and records that one duration into every sink it has, so
// /metrics and /trace agree to the nanosecond.  The timer is registered
// under trace_op_name(op), so a stage's name is spelled once.  A span with
// no sink reads no clock and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dnsnoise::obs {

class StageSpan {
 public:
  /// A span of stage `op`: times into `metrics`' timer trace_op_name(op)
  /// and traces into `stream`, a stream of `trace`.  A null `metrics` or a
  /// null `stream` leaves that sink out.  Registering the timer takes the
  /// registry's mutex, so open a registry-backed span once per stage,
  /// never per event.
  StageSpan(MetricsRegistry* metrics, TraceStream* stream,
            const TraceCollector* trace, TraceOp op)
      : timer_(metrics != nullptr ? &metrics->timer(trace_op_name(op))
                                  : nullptr),
        stream_(stream),
        trace_(trace),
        op_(op) {
    open();
  }
  /// A timer-only span into a pre-resolved timer, for a sub-stage that has
  /// no trace op (miner.features); a null timer records nothing.
  explicit StageSpan(LatencyRecorder* timer) noexcept : timer_(timer) {
    open();
  }
  ~StageSpan() { stop(); }

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

  /// Trace annotations; they may be set any time before the span closes.
  /// The label is copied (truncated to TraceEvent capacity), so a
  /// transient string is safe even though the span records at scope exit.
  void annotate(std::string_view label, std::uint16_t qtype = 0,
                TraceOutcome outcome = TraceOutcome::kNone,
                std::uint64_t id = kTraceNoId) noexcept {
    if (stream_ == nullptr) return;
    label_len_ = label.size() < sizeof(label_) - 1 ? label.size()
                                                   : sizeof(label_) - 1;
    if (label_len_ != 0) std::memcpy(label_, label.data(), label_len_);
    qtype_ = qtype;
    outcome_ = outcome;
    id_ = id;
  }

  /// Closes the span now instead of at scope exit and returns the
  /// nanoseconds it recorded (0 with no sink).  Idempotent: later calls
  /// record nothing and return the same value.
  std::uint64_t stop() noexcept {
    if (timer_ == nullptr && stream_ == nullptr) return recorded_ns_;
    const auto end = std::chrono::steady_clock::now();
    recorded_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count());
    if (timer_ != nullptr) timer_->record(recorded_ns_);
    if (stream_ != nullptr) {
      stream_->span(op_, trace_->since_epoch_ns(start_), recorded_ns_,
                    std::string_view(label_, label_len_), qtype_, outcome_,
                    id_);
    }
    timer_ = nullptr;
    stream_ = nullptr;
    return recorded_ns_;
  }

 private:
  void open() noexcept {
    if (timer_ != nullptr || stream_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  LatencyRecorder* timer_ = nullptr;
  TraceStream* stream_ = nullptr;
  const TraceCollector* trace_ = nullptr;
  TraceOp op_ = TraceOp::kWorkloadDay;
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t recorded_ns_ = 0;
  char label_[sizeof(TraceEvent::label)] = {};
  std::size_t label_len_ = 0;
  std::uint16_t qtype_ = 0;
  TraceOutcome outcome_ = TraceOutcome::kNone;
  std::uint64_t id_ = kTraceNoId;
};

}  // namespace dnsnoise::obs
