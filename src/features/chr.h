// Cache-hit-rate accounting (paper Section III-C2).
//
// The monitoring point sees answer RRs below (client-facing) and above
// (authority-facing) the cluster.  Per RR and per day:
//   total queries  = below observations,
//   cache misses   = above observations,
//   DHR            = (queries - misses) / queries        [domain hit rate]
//   CHR_i          = DHR for each of the n misses        [cache hit rate]
// i.e. the CHR *distribution* repeats an RR's DHR once per miss, exactly
// the paper's black-box simplification of the renewal model.
//
// Hot-path layout (DESIGN.md §11.5): RRs are keyed as compact records
// (dns/rr.h) whose owner and text rdata are ids of one NameTable — a day
// capture's one table, shared with its domain tree — in a flat
// open-addressed slot array probed with a hash built from the table's
// stored text hashes.  Re-recording an already-seen RR compares integers
// and allocates nothing, and no RR holds text of its own: entries() hands
// out compact keys, and callers build text on demand (to_rr_key).  The
// hash is the same in every table (rr_hash), so a merge remaps the other
// tracker's ids once and reuses its stored hashes.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/name_table.h"
#include "dns/rr.h"

namespace dnsnoise {

class CacheHitRateTracker {
 public:
  struct Counts {
    std::uint64_t below = 0;  // total queries (answers seen below)
    std::uint64_t above = 0;  // cache misses (answers seen above)
    std::uint32_t ttl = 0;    // authoritative TTL (first observation wins)
  };

  /// One RR: its compact key (TTL 0; the first observation's TTL is in
  /// the counts) and its counts.
  using Entry = std::pair<CompactRecord, Counts>;

  /// An empty tracker keyed on ids of `names`, which must outlive it at a
  /// fixed address.
  explicit CacheHitRateTracker(NameTable& names);

  CacheHitRateTracker(const CacheHitRateTracker&) = delete;
  CacheHitRateTracker& operator=(const CacheHitRateTracker&) = delete;
  CacheHitRateTracker(CacheHitRateTracker&&) = default;
  CacheHitRateTracker& operator=(CacheHitRateTracker&&) = default;

  /// The table the keys' ids belong to.
  const NameTable& names() const noexcept { return *names_; }

  /// Counts one below sighting of `rr`, whose owner and text rdata are ids
  /// in names() and whose TTL is recorded on the RR's first observation.
  /// Returns true when it is the RR's first below sighting of the day (an
  /// above sighting before it does not count), so callers can do per-RR
  /// first-sight work exactly once.
  bool record_below(const CompactRecord& rr);
  void record_above(const CompactRecord& rr);

  /// Presentation-form entry points: convert the RR once (compact_record,
  /// interning its text into names()) and count it like the overloads
  /// above.
  bool record_below(std::string_view name, RRType type, std::string_view rdata,
                    std::uint32_t ttl = 0);
  void record_above(std::string_view name, RRType type, std::string_view rdata,
                    std::uint32_t ttl = 0);

  std::size_t unique_rrs() const noexcept { return entries_.size(); }

  /// Makes room for `rrs` RRs owned by ids below `names`, so recording or
  /// merging up to that many grows nothing.
  void reserve(std::size_t rrs, std::size_t names);

  /// Counts for one RR, or nullptr if never seen.
  const Counts* find(const RRKey& key) const;

  /// Sums `other`'s per-RR counts into this tracker (shard merging);
  /// `remap[i]` is this table's id for other's id i (see
  /// NameTable::intern_all).  An RR new to this tracker is appended in
  /// `other`'s entry order and takes other's TTL; an RR present in both
  /// keeps this tracker's TTL.
  void merge_from(const CacheHitRateTracker& other,
                  std::span<const NameId> remap);

  /// Domain hit rate of an RR's counts (0 when it was never queried below,
  /// clamped at 0 when above > below).
  static double dhr(const Counts& counts) noexcept;

  /// End of a chain of entries (see NameRrs).
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;

  /// The entry indices of one name's RRs, in first-observation order: a
  /// walk along a chain threaded through the entries, so indexing a name
  /// allocates nothing.
  class NameRrs {
   public:
    class iterator {
     public:
      iterator(const std::uint32_t* next, std::uint32_t at) noexcept
          : next_(next), at_(at) {}

      std::uint32_t operator*() const noexcept { return at_; }
      iterator& operator++() noexcept {
        at_ = next_[at_];
        return *this;
      }
      friend bool operator==(const iterator& a, const iterator& b) noexcept {
        return a.at_ == b.at_;
      }

     private:
      const std::uint32_t* next_;
      std::uint32_t at_;
    };

    NameRrs() = default;
    NameRrs(const std::uint32_t* next, std::uint32_t first) noexcept
        : next_(next), first_(first) {}

    iterator begin() const noexcept { return {next_, first_}; }
    iterator end() const noexcept { return {next_, kNoEntry}; }
    bool empty() const noexcept { return first_ == kNoEntry; }
    std::size_t size() const noexcept {
      std::size_t n = 0;
      for (auto it = begin(); it != end(); ++it) ++n;
      return n;
    }

   private:
    const std::uint32_t* next_ = nullptr;
    std::uint32_t first_ = kNoEntry;
  };

  /// The RRs (indices into entries()) owned by `owner`, an id of
  /// names() (kInvalidNameId owns none).  Never allocates.
  NameRrs rrs_of(NameId owner) const noexcept {
    if (owner >= chains_.size()) return {};
    return {next_.data(), chains_[owner].first};
  }

  /// Flat access to every (key, counts) entry, in first-observation order.
  std::span<const Entry> entries() const noexcept { return entries_; }

  /// DHR of every RR (order matches entries()).
  std::vector<double> all_dhr() const;

  /// The day's CHR distribution: every RR's DHR repeated once per miss.
  /// (Paper Figs. 4 and 7 plot the CDF of exactly this multiset.)
  std::vector<double> chr_distribution() const;

 private:
  /// Counts slot for `rr` (hash `h`), created on first observation.
  Counts& entry_for(const CompactRecord& rr, std::uint64_t h);

  void grow_slots(std::size_t min_slots);

  /// One owner's chain of entries: first and last entry index.
  struct Chain {
    std::uint32_t first = kNoEntry;
    std::uint32_t last = kNoEntry;
  };

  NameTable* names_;                   // owners and text rdata
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> hashes_;  // parallel to entries_; never recomputed
  std::vector<std::uint32_t> slots_;   // entry index + 1; 0 = empty
  std::size_t slot_mask_ = 0;
  std::vector<Chain> chains_;          // indexed by owner id
  std::vector<std::uint32_t> next_;    // parallel to entries_: same owner's
                                       // next entry, or kNoEntry
};

}  // namespace dnsnoise
