// TTL-aware DNS answer cache, keyed by question (qname id, qtype).
//
// Models the cache of one recursive server: fixed-capacity LRU beneath a
// TTL layer.  Expired entries count as misses.  Negative caching
// (RFC 2308) is optional — the paper observes the monitored resolvers were
// *not* honoring it, so the default is off (Section III-C1).
//
// Keyed on (NameId, qtype) of the owner's NameTable (the cluster interns
// every qname once, for all its servers), and each entry stores its
// answer RRset inline as compact records (DESIGN.md §11.4): a lookup, an
// insert and an eviction of a set of up to CachedRecords::kInline records
// allocate nothing once the LRU has grown to the resident set.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "dns/name_table.h"
#include "dns/rr.h"
#include "resolver/lru_cache.h"
#include "util/sim_time.h"

namespace dnsnoise {

/// An answer RRset stored in its cache entry: up to kInline records in
/// place, a larger set in one heap block (the spill).
class CachedRecords {
 public:
  static constexpr std::size_t kInline = 2;

  CachedRecords() = default;
  explicit CachedRecords(std::span<const CompactRecord> records) {
    count_ = static_cast<std::uint32_t>(records.size());
    CompactRecord* dst = inline_.data();
    if (records.size() > kInline) {
      spill_ = std::make_unique<CompactRecord[]>(records.size());
      dst = spill_.get();
    }
    std::copy(records.begin(), records.end(), dst);
  }

  std::span<const CompactRecord> span() const noexcept {
    return {spill_ != nullptr ? spill_.get() : inline_.data(), count_};
  }
  std::size_t size() const noexcept { return count_; }
  const CompactRecord& operator[](std::size_t i) const noexcept {
    return span()[i];
  }

 private:
  std::uint32_t count_ = 0;
  std::array<CompactRecord, kInline> inline_{};
  std::unique_ptr<CompactRecord[]> spill_;
};

/// A cached answer RRset (positive or negative).
struct CachedAnswer {
  SimTime expires = 0;
  RCode rcode = RCode::NoError;
  bool disposable_hint = false;  // set by experiments that know ground truth
  CachedRecords answers;
};

struct DnsCacheConfig {
  std::size_t capacity = 1 << 20;
  bool negative_cache = false;     // RFC 2308 negative caching
  std::uint32_t negative_ttl = 300;
  /// Some implementations clamp tiny TTLs up (paper §VI-A cites RFC 1536 /
  /// RFC 1912 behaviour of holding records a minimum time).  Answer TTLs
  /// are clamped into [min_ttl, max_ttl]; min_ttl > max_ttl is rejected.
  std::uint32_t min_ttl = 0;
  std::uint32_t max_ttl = 86400;
  /// Section VI-A mitigation: entries flagged disposable are inserted at
  /// the cold end of the LRU, so they never displace useful records.
  bool low_priority_disposable = false;
};

/// Why `config` cannot build a cache, or nullptr when it can.  Day runners
/// report it as a bad configuration before building anything.
const char* cache_config_error(const DnsCacheConfig& config) noexcept;

struct DnsCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;              // absent entries
  std::uint64_t expired_misses = 0;      // present but TTL-expired
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;           // total LRU evictions
  std::uint64_t premature_evictions = 0; // evicted while still fresh
  /// Premature evictions of entries *not* flagged disposable — the paper's
  /// collateral-damage metric (useful records pushed out by noise).
  std::uint64_t premature_nondisposable_evictions = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses + expired_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Adds `delta` into `total` field-wise — the one definition of cache-stat
/// merging, shared by cluster aggregation and engine shard merging.
inline void accumulate(DnsCacheStats& total,
                       const DnsCacheStats& delta) noexcept {
  total.hits += delta.hits;
  total.misses += delta.misses;
  total.expired_misses += delta.expired_misses;
  total.inserts += delta.inserts;
  total.evictions += delta.evictions;
  total.premature_evictions += delta.premature_evictions;
  total.premature_nondisposable_evictions +=
      delta.premature_nondisposable_evictions;
}

class DnsCache {
 public:
  /// Throws std::invalid_argument when cache_config_error(config) is set.
  explicit DnsCache(const DnsCacheConfig& config);

  /// Fresh cached answer for (name, type), or nullptr (miss).  Misses and
  /// hits are tallied; expired entries are erased on access.  Never
  /// allocates; the pointer stays valid until the next mutating call.
  const CachedAnswer* lookup(NameId name, RRType type, SimTime now);

  /// Inserts a positive answer and returns the resident entry, or nullptr
  /// when the answer is uncacheable (empty set or effective TTL 0 after the
  /// [min_ttl, max_ttl] clamp).  The records are copied into the entry.
  const CachedAnswer* insert_positive(NameId name, RRType type,
                                      std::span<const CompactRecord> answers,
                                      SimTime now,
                                      bool disposable_hint = false);

  /// Inserts a negative (NXDOMAIN) entry if negative caching is enabled.
  void insert_negative(NameId name, RRType type, SimTime now);

  const DnsCacheStats& stats() const noexcept { return stats_; }
  std::size_t size() const noexcept { return cache_.size(); }
  std::size_t capacity() const noexcept { return cache_.capacity(); }

  /// Visits every resident entry (fresh or expired), MRU first, as
  /// (name, type, answer).
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    cache_.for_each([&visit](const Key& key, const CachedAnswer& value) {
      visit(key.name, key.type, value);
    });
  }

 private:
  struct Key {
    NameId name = kInvalidNameId;
    RRType type = RRType::A;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return static_cast<std::size_t>(
          mix64((static_cast<std::uint64_t>(key.name) << 16) ^
                static_cast<std::uint64_t>(key.type)));
    }
  };

  DnsCacheConfig config_;
  LruCache<Key, CachedAnswer, KeyHash> cache_;
  DnsCacheStats stats_;
  SimTime now_ = 0;  // updated on every lookup/insert, read by the listener
};

}  // namespace dnsnoise
