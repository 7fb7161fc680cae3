// Monitoring-tap observer API: batched answer-stream delivery.
//
// The paper's vantage point (Section III-A) is a passive tap that sees the
// two DNS answer streams around the RDNS cluster — "below" (server ->
// client) and "above" (authority -> server) — and nothing else.  Consumers
// subscribe as TapObserver and receive TapEvent *spans*: a producer
// accumulates events plus their answer RRs into a contiguous batch and
// delivers the whole batch with one virtual call, amortizing dispatch over
// hundreds of answers instead of paying a std::function hop per answer.
// There are two producers, each owning one TapBuffer over its one
// NameTable: RdnsCluster (the simulated tap) and CaptureDecoder (pcap
// replay, netio/capture.h).  An observer cannot tell them apart.
//
// Batching contract:
//  - Events within a batch are in observation order; batches are delivered
//    in order.  Concatenating all batches reproduces the per-event stream
//    exactly, so batch size never changes what an observer accumulates.
//  - Events carry ids, not text: the qname and every answer record's owner
//    and text rdata are NameIds of the producer's one NameTable, which the
//    batch hands out as names().  Answers are compact records (dns/rr.h).
//  - A batch and everything it references (events, answer records, the
//    name table and the ids' meaning) is only valid for the duration of
//    on_tap_batch(); observers must copy or remap what they keep.  Within
//    one producer an id keeps its meaning for the producer's lifetime, so
//    an observer may cache per-id work across batches of the same table
//    (TapIdRemap, as DayCapture and the traffic sketch do), but never
//    across producers.  The producer reuses the batch's storage: its
//    event and answer slots outlive a flush and the next batch overwrites
//    them, so a steady-state day buffers events without allocating.  The
//    slots are copies, never views of cache entries, because a later
//    query of the same batch may expire and erase the entry an event
//    answered from.
//  - Delivery happens when the batch reaches TapBuffer::kBatchSize events
//    (the same for every producer) and on the producer's flush_taps();
//    removing an observer or destroying the producer flushes first, so no
//    event is ever silently dropped.
//  - Observers are invoked on the thread that drives the producer.  The
//    sharded engine gives every shard its own cluster and observer, so
//    observer implementations need no internal locking.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

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

/// An observer's dense map from one producer's NameIds to ids of its own,
/// each with a byte of facts the observer decided about that name, so
/// re-seeing a name costs one load: its id and what the observer needs to
/// know about it come in one entry.  Ids are table-scoped, so the map
/// follows one table at a time, by NameTable::serial(): a batch of another
/// table (a new producer, or a new table at a freed table's address)
/// empties it, facts included.
class TapIdRemap {
 public:
  /// One source id's mapping and facts.  The facts are bits the observer
  /// defines; every bit is clear until the observer sets it.
  struct Entry {
    NameId id = kInvalidNameId;
    std::uint8_t facts = 0;
  };

  /// Follows `names`, the table of the batch about to be read, and sizes
  /// the map to it.  Unmapped ids read {kInvalidNameId, 0}.
  void follow(const NameTable& names) {
    if (source_ != names.serial()) {
      release();
      source_ = names.serial();
    }
    if (entries_.size() < names.size()) entries_.resize(names.size());
  }
  /// Forgets the table followed and frees the map's memory.
  void release() {
    source_ = 0;
    entries_ = {};
  }
  /// The entry of `id`, an id of the table followed.  References stay
  /// valid until the next follow() or release().
  Entry& operator[](NameId id) { return entries_[id]; }

 private:
  std::uint64_t source_ = 0;  // serial() of the table followed; 0 = none
  std::vector<Entry> entries_;
};

/// The pending batch of one tap producer and the observers it goes to.
/// The event and answer vectors keep their capacity across flush(), so
/// buffering into a grown batch allocates nothing.  push() reports a full
/// batch and the producer flushes, so it can do its own bookkeeping then.
class TapBuffer {
 public:
  /// Events per full batch, for every producer: large enough to amortize
  /// the virtual dispatch, small enough that a batch's arena stays cached.
  static constexpr std::size_t kBatchSize = 256;

  /// `names` resolves every buffered id; it must outlive the buffer at a
  /// fixed address.
  explicit TapBuffer(const NameTable& names) : names_(&names) {}
  /// Flushes to the observers still registered, which must therefore
  /// outlive the buffer or be removed first.
  ~TapBuffer() { flush(); }
  /// A moved-from buffer holds no events and no observers.
  TapBuffer(TapBuffer&&) noexcept = default;
  TapBuffer& operator=(TapBuffer&&) = delete;

  /// Null throws; an observer already registered is not added again, so
  /// no batch reaches it twice.
  void add_observer(TapObserver* observer) {
    if (observer == nullptr) {
      throw std::invalid_argument("TapBuffer: null tap observer");
    }
    if (std::find(observers_.begin(), observers_.end(), observer) ==
        observers_.end()) {
      observers_.push_back(observer);
    }
  }
  /// Flushes, then unregisters `observer`; unknown observers are ignored.
  void remove_observer(TapObserver* observer) {
    flush();
    std::erase(observers_, observer);
  }
  std::size_t observer_count() const noexcept { return observers_.size(); }
  /// Producers build no event while nobody observes.
  bool observed() const noexcept { return !observers_.empty(); }
  /// Events buffered since the last flush.
  std::size_t pending() const noexcept { return events_.size(); }

  /// Buffers one event and copies of its answers.  True when the batch is
  /// full: the producer must then flush().
  [[nodiscard]] bool push(SimTime ts, TapDirection direction,
                          std::uint64_t client_id, NameId qname, RRType qtype,
                          RCode rcode,
                          std::span<const CompactRecord> answers) {
    events_.push_back(TapEvent{ts, client_id, qname, qtype, direction, rcode,
                               static_cast<std::uint32_t>(answers_.size()),
                               static_cast<std::uint32_t>(answers.size())});
    answers_.insert(answers_.end(), answers.begin(), answers.end());
    return events_.size() >= kBatchSize;
  }

  /// Delivers the pending batch, if any, to every observer and empties it.
  void flush() {
    if (events_.empty()) return;
    const TapBatch batch{events_, answers_, *names_};
    for (TapObserver* observer : observers_) observer->on_tap_batch(batch);
    events_.clear();
    answers_.clear();
  }

 private:
  const NameTable* names_;
  std::vector<TapObserver*> observers_;
  std::vector<TapEvent> events_;
  std::vector<CompactRecord> answers_;
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
