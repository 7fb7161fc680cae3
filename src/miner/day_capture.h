// DayCapture: the monitoring tap of one simulated day.
//
// Subscribes to a batched tap stream (TapObserver) — an RdnsCluster's, or
// a CaptureDecoder's replaying a pcap — and accumulates everything the
// paper's analyses need for that day: the domain name tree of resolved
// names, per-RR cache-hit-rate counts, hourly traffic-volume series with
// tenant attribution (Fig. 2), unique queried/resolved name sets, and
// optionally the raw fpDNS entries.  Captures are mergeable: the sharded
// engine runs one DayCapture per RDNS-server shard and unions them (see
// merge_from).
//
// One table (DESIGN.md §11.5): everything the capture keeps is keyed on
// the ids of its one NameTable, held at a fixed address so captures can
// move.  The domain tree is per-id state over it, the CHR tracker keys
// owners and text rdata on it, and the queried and resolved sets are
// per-id flags plus first-sight id lists.  Interning a qname or an RR
// owner also interns its missing suffixes and records its parent (the
// tree's intern), so every name the capture saw has its ancestors; rdata
// text is interned with no parent.
//
// Hot path: tap events carry ids of the producer's name table, and the
// capture keeps a dense remap from those ids to its own (TapIdRemap).  A
// remap entry also holds what the capture decided about the name: its
// hourly series class (google, akamai), that its id is a tree name, and
// that it is in the queried list.  Each is decided once per producer id,
// from the text on first sight, so a repeated event costs one load: no
// text is read, hashed or copied.  The CHR is probed with the hash of the
// producer's record (rr_hash), which is the key's: the capture interns
// with the producer's stored hashes.  The tree and the resolved set
// depend only on the set of RRs seen below, so they are touched only on
// an RR's first below sighting (CacheHitRateTracker::record_below reports
// it); an RR seen above first still counts on its first below sighting,
// and one seen only above never does.  The remap and its facts reset
// together (attach, start_day, a batch of another table) and are freed
// on detach.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dns/name_table.h"
#include "features/chr.h"
#include "features/domain_tree.h"
#include "pdns/fpdns.h"
#include "resolver/cluster.h"
#include "resolver/tap.h"
#include "util/parallel_for.h"
#include "util/sim_time.h"

namespace dnsnoise {

/// Hourly volume counters for one stream (24 slots).
struct HourlySeries {
  std::array<std::uint64_t, 24> total{};
  std::array<std::uint64_t, 24> nxdomain{};
  std::array<std::uint64_t, 24> google{};
  std::array<std::uint64_t, 24> akamai{};

  std::uint64_t sum_total() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : total) sum += v;
    return sum;
  }
  std::uint64_t sum_nxdomain() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : nxdomain) sum += v;
    return sum;
  }

  /// Slot-wise addition (shard merging).
  HourlySeries& operator+=(const HourlySeries& other) noexcept {
    for (std::size_t h = 0; h < 24; ++h) {
      total[h] += other.total[h];
      nxdomain[h] += other.nxdomain[h];
      google[h] += other.google[h];
      akamai[h] += other.akamai[h];
    }
    return *this;
  }
};

struct DayCaptureConfig {
  bool keep_fpdns = false;  // store raw fpDNS entries (memory-heavy)
};

class DayCapture final : public TapObserver {
 public:
  explicit DayCapture(const DayCaptureConfig& config = {});

  /// Subscribes this capture to the cluster's batched tap stream.  The
  /// capture must stay registered-valid until detach() (or the cluster is
  /// destroyed, which flushes to it).
  void attach(RdnsCluster& cluster);

  /// Flushes pending cluster batches to this capture, unsubscribes, and
  /// frees the id remap of the cluster's table.
  void detach(RdnsCluster& cluster);

  /// TapObserver: accumulates each batched event; the capture's one
  /// input.  Batches of a table other than the last one seen (by
  /// NameTable::serial()) reset the id remap, so any producer may feed
  /// the capture after another.
  void on_tap_batch(const TapBatch& batch) override;

  /// Advances to a new day.  This is the ONE reset point of a capture: it
  /// clears everything the capture holds (tree, CHR, hourly series, name
  /// sets, fpDNS entries, id remap).  Every simulate/run entry point calls
  /// this before feeding a day.  The day index is unused.
  void start_day(std::int64_t day_index);

  /// Unions another capture of the SAME day into this one: other's table
  /// is remapped into this one once, reusing its stored hashes, then the
  /// domain tree, the CHR counts and the name sets merge by integer remap
  /// (side by side through `parallel_for`, serially when it is empty);
  /// hourly series add and fpDNS entries append.  Merging shard captures
  /// in shard order yields a deterministic result regardless of how many
  /// threads produced them.
  void merge_from(const DayCapture& other,
                  const ParallelFor& parallel_for = {});

  /// Same, and frees `other`.  Into a capture that has seen no event since
  /// start_day(), other's day moves in whole instead of being copied: the
  /// same ids, counts and lists as a copying merge, with each tree node's
  /// children in other's insertion order (a copying merge relinks them in
  /// id order; nothing reads child order).  This capture keeps its config.
  void merge_from(DayCapture&& other, const ParallelFor& parallel_for = {});

  /// Makes room for `names` names, `rrs` RRs and the given name-set
  /// sizes, so merges up to them grow nothing (merge_shards reserves the
  /// shards' sums).
  void reserve(std::size_t names, std::size_t rrs, std::size_t queried,
               std::size_t resolved);

  /// The capture's one table: the ids of the tree, the CHR keys and the
  /// name sets.
  const NameTable& names() const noexcept { return *names_; }

  DomainNameTree& tree() noexcept { return tree_; }
  const DomainNameTree& tree() const noexcept { return tree_; }
  CacheHitRateTracker& chr() noexcept { return chr_; }
  const CacheHitRateTracker& chr() const noexcept { return chr_; }
  FpDnsDataset& fpdns() noexcept { return fpdns_; }
  const FpDnsDataset& fpdns() const noexcept { return fpdns_; }

  const HourlySeries& below_series() const noexcept { return below_; }
  const HourlySeries& above_series() const noexcept { return above_; }

  /// Unique names queried below (successful or not) this day.
  std::size_t unique_queried() const noexcept { return queried_.size(); }
  /// Unique names successfully resolved this day.
  std::size_t unique_resolved() const noexcept { return resolved_.size(); }

  /// The day's queried and resolved names as ids of names(), in
  /// first-sight order.  After a shard merge the order is shard 0's names,
  /// then shard 1's new ones, and so on: a function of the shard streams,
  /// never of the thread count.
  std::span<const NameId> queried_names() const noexcept { return queried_; }
  std::span<const NameId> resolved_names() const noexcept {
    return resolved_;
  }

 private:
  /// Bits of seen_.
  static constexpr std::uint8_t kQueried = 1;
  static constexpr std::uint8_t kResolved = 2;

  /// Facts of a remap entry: what the capture decided about one source
  /// name, each once.
  static constexpr std::uint8_t kClassed = 1;   // kGoogle, kAkamai decided
  static constexpr std::uint8_t kGoogle = 2;    // counts in series.google
  static constexpr std::uint8_t kAkamai = 4;    // counts in series.akamai
  static constexpr std::uint8_t kTreeName = 8;  // id is a tree name
  static constexpr std::uint8_t kListed = 16;   // id is in queried_

  /// The capture's id of source id `id`: as a name (with its suffixes)
  /// or as rdata text.
  NameId name_id(NameId id, const NameTable& names);
  NameId text_id(NameId id, const NameTable& names);
  /// Adds `id` to a name set (a kQueried or kResolved list) once.
  void add_name(NameId id, std::uint8_t set);

  DayCaptureConfig config_;
  std::unique_ptr<NameTable> names_;  // the one table; fixed address
  DomainNameTree tree_;
  CacheHitRateTracker chr_;
  FpDnsDataset fpdns_;
  HourlySeries below_;
  HourlySeries above_;
  std::vector<std::uint8_t> seen_;  // per id of names_: kQueried | kResolved
  std::vector<NameId> queried_;
  std::vector<NameId> resolved_;
  TapIdRemap remap_;  // source id -> id of names_, with its facts
};

}  // namespace dnsnoise
