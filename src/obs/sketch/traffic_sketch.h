// Streaming traffic introspection plane (DESIGN.md §17).
//
// The paper measures the pervasiveness of disposable domains offline, by
// mining a finished day.  TrafficSketchPlane answers the same questions
// *while the traffic flows*: what fraction of the current window is
// disposable (classified live against the previous day's mined zones),
// which SLDs and qnames are the heavy hitters, how many distinct qnames
// and clients the cluster is seeing, and how the NXDOMAIN / new-name
// rates move — all in bounded memory over unbounded traffic, from three
// compact mergeable sketches:
//
//   * SpaceSavingSketch top-K heavy hitters, keyed by interned NameId at
//     SLD (registrable domain) and full-qname granularity,
//   * HllSketch distinct-qname / distinct-client cardinality,
//   * a sliding-window ring of per-interval aggregates (queries,
//     disposable, NXDOMAIN, new names) keyed by simulated time.
//
// Concurrency contract (the same shape as the latency recorder): one
// TrafficSketch per shard, fed by exactly one writer — the thread driving
// that shard's cluster.  The sketch is a TapObserver (resolver/tap.h): it
// reads the same batches as the DayCapture on the same cluster, taking
// the shard mutex once per batch.  Event qnames are ids of the producer's
// NameTable; a dense remap, reset whenever the batch's table serial()
// changes, turns each into a local id with one load, so only a name's
// first sight hashes or copies text.  Each below event then bumps exact
// per-name delta counters, and Space-Saving folds happen the moment the
// touched set crosses a threshold — a pure function of the below-event
// sequence, never of batch boundaries or scrape timing.  The scrape
// thread takes the same per-shard locks to merge, overlaying un-folded
// deltas onto a *copy* of the Space-Saving state, so scrapes never
// perturb writer state and consecutive quiesced scrapes are
// byte-identical.  A mid-stream scrape misses at most the producer's one
// pending tap batch; flush_taps() (or removing the observer) delivers it.
// Detached, the sketch costs the cluster nothing.
//
// Determinism contract: shard decomposition follows the cluster's
// server_count (threads only schedule), per-shard sketches are pure
// functions of their shard's event stream, and snapshot() merges shards
// in index order — Space-Saving counters by summed (count, error) per
// interned *text* (never raw NameIds of different tables), HLL by
// register max, window slots by interval-keyed sums, top-K ranked by
// (count desc, name asc).  threads(N) therefore serves byte-identical
// dnsnoise-traffic-v1 documents to threads(1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "dns/name_table.h"
#include "dns/public_suffix.h"
#include "obs/sketch/hll.h"
#include "obs/sketch/spacesaving.h"
#include "resolver/tap.h"
#include "util/sim_time.h"
#include "util/strings.h"

namespace dnsnoise::obs {

class MetricsRegistry;

struct TrafficSketchConfig {
  /// Heavy hitters exported per table (top_slds / top_qnames).
  std::size_t top_k = 16;
  /// Space-Saving counters per shard per table; the exact-top-K
  /// guarantee needs counters >> top_k on skewed streams.
  std::size_t counters = 512;
  /// Sliding-window ring length; older intervals are overwritten.
  std::size_t window_slots = 32;
  /// Width of one window interval in simulated seconds.
  SimTime interval_seconds = 300;
  /// Registrable-domain split for the SLD table; builtin() when null.
  const PublicSuffixList* psl = nullptr;
};

/// One exported heavy hitter: count overestimates the true frequency by
/// at most `error` (count - error is a guaranteed lower bound).
struct TrafficHeavyHitter {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t error = 0;
};

/// One window interval's aggregates ([start_ts, start_ts + interval)).
struct TrafficInterval {
  SimTime start_ts = 0;
  std::uint64_t queries = 0;
  std::uint64_t disposable = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t new_names = 0;
};

/// Deterministic cross-shard merge of the plane (see header comment).
struct TrafficSnapshot {
  std::uint64_t queries = 0;
  std::uint64_t disposable = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t new_names = 0;
  double distinct_qnames = 0.0;
  double distinct_clients = 0.0;
  std::size_t classifier_zones = 0;
  std::vector<TrafficHeavyHitter> top_slds;
  std::vector<TrafficHeavyHitter> top_qnames;
  std::vector<TrafficInterval> window;  // oldest first
  // Config echo, so consumers can interpret the document standalone.
  std::size_t top_k = 0;
  SimTime interval_seconds = 0;
  std::size_t window_slots = 0;

  double disposable_share() const noexcept {
    return queries == 0
               ? 0.0
               : static_cast<double>(disposable) / static_cast<double>(queries);
  }
  double nxdomain_share() const noexcept {
    return queries == 0
               ? 0.0
               : static_cast<double>(nxdomain) / static_cast<double>(queries);
  }
};

/// Zone set the live classifier matches label suffixes against
/// (heterogeneous lookup: membership tests take string_views of the
/// event qname, no per-query allocation).
using DisposableZoneSet =
    std::unordered_set<std::string, StringHash, std::equal_to<>>;

/// One shard's sketch set, attached to its cluster as a tap observer.
/// Single-writer per the plane's concurrency contract.
class TrafficSketch final : public TapObserver {
 public:
  explicit TrafficSketch(const TrafficSketchConfig& config);

  /// Counts every below event of `batch` whose qname is not the root, in
  /// batch order, under one lock; above events are not counted.  Any
  /// producer may feed the sketch: ids are remapped per table serial().
  void on_tap_batch(const TapBatch& batch) override;

  /// Swaps the live classifier zone set (shared across shards).  Cached
  /// per-name verdicts are invalidated lazily (reclassified on next
  /// sight), so arming day N's zones mid-stream is O(distinct names)
  /// flag clears, not a rebuild.
  void set_disposable_zones(std::shared_ptr<const DisposableZoneSet> zones);

 private:
  friend class TrafficSketchPlane;

  /// Exact deltas fold into Space-Saving when this many distinct names
  /// are touched — checked after every counted event, so folds depend
  /// only on the event stream (batching and scrape timing never move
  /// writer state), bounding both the fold cost and the scrape-side
  /// overlay cost.
  static constexpr std::size_t kFoldThreshold = 4096;

  struct WindowSlot {
    SimTime interval = -1;  // interval id (ts / interval_seconds); -1 empty
    std::uint64_t queries = 0;
    std::uint64_t disposable = 0;
    std::uint64_t nxdomain = 0;
    std::uint64_t new_names = 0;
  };

  /// Cached per-distinct-qname state, indexed by local id: the exact
  /// count since the last Space-Saving fold, the interned SLD, and the
  /// lazily computed classifier verdict — one cache line instead of a
  /// PSL walk per event.
  struct NameState {
    std::uint64_t delta = 0;
    std::uint32_t sld = 0;
    std::uint8_t flags = 0;
  };
  static constexpr std::uint8_t kClassified = 1;
  static constexpr std::uint8_t kDisposable = 2;

  /// Internal merge state the plane accumulates shard collections into.
  struct Accumulator;

  struct LocalName {
    NameId id = kInvalidNameId;
    bool fresh = false;
  };

  // All private helpers below run under mutex_.
  LocalName intern_local(std::string_view text);
  void classify(NameId id);
  void count_event(NameId id, bool fresh, std::uint64_t client, bool nx,
                   SimTime ts);
  void fold_deltas();
  void maybe_fold();
  void collect_into(Accumulator& acc) const;

  TrafficSketchConfig config_;  // psl resolved to builtin() when null

  mutable std::mutex mutex_;
  TapIdRemap remap_;  // producer NameId -> local qname id
  NameTable qnames_;
  NameTable slds_;
  std::vector<NameState> names_;          // indexed by local qname id
  std::vector<std::uint64_t> sld_delta_;  // indexed by local SLD id
  std::vector<NameId> qname_touched_;     // ids with delta > 0, first-touch
                                          // order
  std::vector<NameId> sld_touched_;
  SpaceSavingSketch qname_heavy_;
  SpaceSavingSketch sld_heavy_;
  HllSketch distinct_qnames_;
  HllSketch distinct_clients_;
  std::vector<WindowSlot> window_;
  SimTime memo_ts_ = -1;  // window-slot memo: division once per distinct ts
  SimTime memo_interval_ = -1;
  std::size_t memo_slot_ = 0;
  std::uint64_t queries_ = 0;
  std::uint64_t disposable_ = 0;
  std::uint64_t nxdomain_ = 0;
  std::uint64_t new_names_ = 0;
  std::shared_ptr<const DisposableZoneSet> zones_;
};

/// The per-shard sketch owner plus the deterministic cross-shard merge
/// and the byte-stable dnsnoise-traffic-v1 export.
class TrafficSketchPlane {
 public:
  explicit TrafficSketchPlane(const TrafficSketchConfig& config = {});

  TrafficSketchPlane(const TrafficSketchPlane&) = delete;
  TrafficSketchPlane& operator=(const TrafficSketchPlane&) = delete;

  const TrafficSketchConfig& config() const noexcept { return config_; }

  /// Grows the shard set to at least `count` instances (never shrinks;
  /// existing shards keep their contents).  Call before attaching
  /// observers, not from the hot path.
  void ensure_shards(std::size_t count);

  std::size_t shard_count() const;

  /// Shard `index` (must be < shard_count()); the returned reference is
  /// stable for the plane's lifetime.
  TrafficSketch& shard(std::size_t index);

  /// Replaces the live classifier with `zones` (the previous day's mined
  /// disposable zones); an empty vector clears it.  Applies to all
  /// current and future shards.
  void set_disposable_zones(std::vector<std::string> zones);

  std::size_t classifier_zone_count() const;

  /// Deterministic merged view of all shards (index order).
  TrafficSnapshot snapshot() const;

  /// Byte-stable dnsnoise-traffic-v1 JSON of snapshot(); serve it on
  /// GET /traffic (obs::TelemetryServer::set_traffic_source).
  std::string to_json() const;

  /// Refreshes the top-level traffic.* gauges from snapshot().  Safe
  /// from the telemetry scrape thread (Gauge::set is a relaxed store).
  void publish_gauges(MetricsRegistry& registry) const;

 private:
  TrafficSketchConfig config_;
  mutable std::mutex mutex_;  // guards shards_ growth and zones_ swap
  std::vector<std::unique_ptr<TrafficSketch>> shards_;
  std::shared_ptr<const DisposableZoneSet> zones_;
};

/// Serializes an already-merged snapshot (exposed for tests; to_json()
/// is snapshot() + this).
std::string to_json(const TrafficSnapshot& snapshot);

}  // namespace dnsnoise::obs
