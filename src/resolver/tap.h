// Monitoring-tap observer API: batched answer-stream delivery.
//
// The paper's vantage point (Section III-A) is a passive tap that sees the
// two DNS answer streams around the RDNS cluster — "below" (server ->
// client) and "above" (authority -> server) — and nothing else.  Consumers
// subscribe as TapObserver and receive TapEvent *spans*: the cluster
// accumulates events plus their answer RRs into a contiguous batch and
// delivers the whole batch with one virtual call, amortizing dispatch over
// hundreds of answers instead of paying a std::function hop per answer.
//
// Batching contract:
//  - Events within a batch are in observation order; batches are delivered
//    in order.  Concatenating all batches reproduces the per-event stream
//    exactly, so batch size never changes what an observer accumulates.
//  - A batch and everything it references (events, questions, answer RRs)
//    is only valid for the duration of on_tap_batch(); observers must copy
//    what they keep.  The cluster reuses the batch's storage: its event
//    and answer slots outlive a flush and the next batch copy-assigns into
//    them, so a steady-state day buffers events without allocating.  The
//    slots are copies, never views of cache entries, because a later query
//    of the same batch may expire and erase the entry an event answered
//    from.
//  - Delivery happens when the batch fills (ClusterConfig::tap_batch_events)
//    and on RdnsCluster::flush_taps(); removing an observer or destroying
//    the cluster flushes first, so no event is ever silently dropped.
//  - Observers are invoked on the thread that drives the cluster.  The
//    sharded engine gives every shard its own cluster and observer, so
//    observer implementations need no internal locking.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>

#include "dns/message.h"
#include "dns/rr.h"
#include "util/sim_time.h"

namespace dnsnoise {

/// Which side of the RDNS cluster an answer was observed on.
enum class TapDirection : std::uint8_t {
  kBelow,  // RDNS -> client
  kAbove,  // authority -> RDNS
};

/// One observed answer event.  Answer RRs live in the enclosing batch's
/// arena (TapBatch::answers); an event only carries its slice bounds.
struct TapEvent {
  SimTime ts = 0;
  TapDirection direction = TapDirection::kBelow;
  std::uint64_t client_id = 0;  // anonymized; 0 for above events
  RCode rcode = RCode::NoError;
  Question question;
  std::uint32_t answer_offset = 0;  // into TapBatch::answers()
  std::uint32_t answer_count = 0;
};

/// A span of tap events plus the shared answer arena they index into.
class TapBatch {
 public:
  TapBatch(std::span<const TapEvent> events,
           std::span<const ResourceRecord> answers) noexcept
      : events_(events), answers_(answers) {}

  std::span<const TapEvent> events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }

  /// The answer RRs of one event of this batch.
  std::span<const ResourceRecord> answers(const TapEvent& event) const {
    return answers_.subspan(event.answer_offset, event.answer_count);
  }

  auto begin() const noexcept { return events_.begin(); }
  auto end() const noexcept { return events_.end(); }

 private:
  std::span<const TapEvent> events_;
  std::span<const ResourceRecord> answers_;
};

/// Interface for tap consumers.
class TapObserver {
 public:
  virtual ~TapObserver() = default;

  /// Receives one batch of tap events.  See the batching contract above.
  virtual void on_tap_batch(const TapBatch& batch) = 0;
};

/// Adapts a callable to TapObserver — convenient for tests and examples.
class FunctionTapObserver final : public TapObserver {
 public:
  explicit FunctionTapObserver(std::function<void(const TapBatch&)> fn)
      : fn_(std::move(fn)) {}

  void on_tap_batch(const TapBatch& batch) override { fn_(batch); }

 private:
  std::function<void(const TapBatch&)> fn_;
};

}  // namespace dnsnoise
