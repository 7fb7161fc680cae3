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
// Hot-path layout (DESIGN.md §11): the RR index is a flat open-addressed
// slot array probed with a precomputed (name, type, rdata) hash, and the
// per-name index maps names through an interned NameTable to dense ids.
// Re-recording an already-seen RR therefore compares string_views against
// the stored entry and allocates nothing; only first observations
// materialize strings.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/name_table.h"
#include "dns/rr.h"
#include "util/rng.h"

namespace dnsnoise {

class CacheHitRateTracker {
 public:
  struct Counts {
    std::uint64_t below = 0;  // total queries (answers seen below)
    std::uint64_t above = 0;  // cache misses (answers seen above)
    std::uint32_t ttl = 0;    // authoritative TTL (first observation wins)
  };

  CacheHitRateTracker();

  CacheHitRateTracker(const CacheHitRateTracker&) = delete;
  CacheHitRateTracker& operator=(const CacheHitRateTracker&) = delete;
  CacheHitRateTracker(CacheHitRateTracker&&) = default;
  CacheHitRateTracker& operator=(CacheHitRateTracker&&) = default;

  /// Counts one below sighting of the RR.  Returns true when it is the
  /// RR's first below sighting of the day (an above sighting before it does
  /// not count), so callers can do per-RR first-sight work exactly once.
  bool record_below(std::string_view name, RRType type, std::string_view rdata,
                    std::uint32_t ttl = 0);
  void record_above(std::string_view name, RRType type, std::string_view rdata,
                    std::uint32_t ttl = 0);

  std::size_t unique_rrs() const noexcept { return entries_.size(); }

  /// Counts for one RR, or nullptr if never seen.
  const Counts* find(const RRKey& key) const;

  /// Sums `other`'s per-RR counts into this tracker (shard merging).  An RR
  /// new to this tracker is appended in `other`'s entry order and takes
  /// other's TTL; an RR present in both keeps this tracker's TTL.
  void merge_from(const CacheHitRateTracker& other);

  /// Domain hit rate of an RR's counts (0 when it was never queried below,
  /// clamped at 0 when above > below).
  static double dhr(const Counts& counts) noexcept;

  /// Indices (into entries()) of all RRs whose name is `name`.  Never
  /// allocates.
  std::span<const std::uint32_t> rrs_of_name(std::string_view name) const;

  /// Flat access to every (key, counts) entry, in first-observation order.
  std::span<const std::pair<RRKey, Counts>> entries() const noexcept {
    return entries_;
  }

  /// DHR of every RR (order matches entries()).
  std::vector<double> all_dhr() const;

  /// The day's CHR distribution: every RR's DHR repeated once per miss.
  /// (Paper Figs. 4 and 7 plot the CDF of exactly this multiset.)
  std::vector<double> chr_distribution() const;

 private:
  static std::uint64_t rr_hash(std::string_view name, RRType type,
                               std::string_view rdata) noexcept {
    return mix64(fnv1a64(name) ^
                 mix64(static_cast<std::uint64_t>(type) + 0x9e3779b9u) ^
                 (fnv1a64(rdata) * 0x9e3779b97f4a7c15ull));
  }

  /// Counts slot for the RR, created on first observation.
  Counts& entry_for(std::string_view name, RRType type,
                    std::string_view rdata);

  void grow_slots(std::size_t min_slots);

  std::vector<std::pair<RRKey, Counts>> entries_;
  std::vector<std::uint64_t> hashes_;  // parallel to entries_; never recomputed
  std::vector<std::uint32_t> slots_;   // entry index + 1; 0 = empty
  std::size_t slot_mask_ = 0;
  NameTable names_{/*track_labels=*/false};
  std::vector<std::vector<std::uint32_t>> by_name_;  // indexed by NameId
};

}  // namespace dnsnoise
