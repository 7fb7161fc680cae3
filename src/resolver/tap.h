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
//  - Events carry ids, not text: the qname and every answer record's owner
//    and text rdata are NameIds of the cluster's one NameTable, which the
//    batch hands out as names().  Answers are compact records (dns/rr.h).
//  - A batch and everything it references (events, answer records, the
//    name table and the ids' meaning) is only valid for the duration of
//    on_tap_batch(); observers must copy or remap what they keep.  Within
//    one cluster an id keeps its meaning for the cluster's lifetime, so
//    an observer may cache per-id work across batches of the same table
//    (DayCapture does), but never across clusters.  The cluster reuses the
//    batch's storage: its event and answer slots outlive a flush and the
//    next batch overwrites them, so a steady-state day buffers events
//    without allocating.  The slots are copies, never views of cache
//    entries, because a later query of the same batch may expire and
//    erase the entry an event answered from.
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

#include "dns/name_table.h"
#include "dns/rr.h"
#include "util/sim_time.h"

namespace dnsnoise {

/// Which side of the RDNS cluster an answer was observed on.
enum class TapDirection : std::uint8_t {
  kBelow,  // RDNS -> client
  kAbove,  // authority -> RDNS
};

/// One observed answer event.  Answer records live in the enclosing
/// batch's arena (TapBatch::answers); an event only carries its slice
/// bounds.
struct TapEvent {
  SimTime ts = 0;
  std::uint64_t client_id = 0;  // anonymized; 0 for above events
  NameId qname = kInvalidNameId;  // in TapBatch::names()
  RRType qtype = RRType::A;
  TapDirection direction = TapDirection::kBelow;
  RCode rcode = RCode::NoError;
  std::uint32_t answer_offset = 0;  // into TapBatch::answers()
  std::uint32_t answer_count = 0;
};

/// A span of tap events, the shared answer arena they index into, and the
/// name table their ids resolve through.
class TapBatch {
 public:
  TapBatch(std::span<const TapEvent> events,
           std::span<const CompactRecord> answers,
           const NameTable& names) noexcept
      : events_(events), answers_(answers), names_(&names) {}

  std::span<const TapEvent> events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }

  /// The answer records of one event of this batch.
  std::span<const CompactRecord> answers(const TapEvent& event) const {
    return answers_.subspan(event.answer_offset, event.answer_count);
  }

  /// The table every id of this batch resolves through.
  const NameTable& names() const noexcept { return *names_; }

  /// One event's question name as text.
  std::string_view qname(const TapEvent& event) const noexcept {
    return names_->name(event.qname);
  }

  auto begin() const noexcept { return events_.begin(); }
  auto end() const noexcept { return events_.end(); }

 private:
  std::span<const TapEvent> events_;
  std::span<const CompactRecord> answers_;
  const NameTable* names_;
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
