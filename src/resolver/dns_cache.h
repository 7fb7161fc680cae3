// TTL-aware DNS answer cache, keyed by question (qname, qtype).
//
// Models the cache of one recursive server: fixed-capacity LRU beneath a
// TTL layer.  Expired entries count as misses.  Negative caching
// (RFC 2308) is optional — the paper observes the monitored resolvers were
// *not* honoring it, so the default is off (Section III-C1).
//
// Internally keyed on (NameId, qtype): qnames are interned once into a
// per-cache NameTable, the LRU is probed with the precomputed name hash,
// and the lookup/insert API takes string_views — no QuestionKey
// construction, no string copies.  A lookup for a never-interned name is a
// miss without touching the LRU at all.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/name_table.h"
#include "dns/rr.h"
#include "resolver/lru_cache.h"
#include "util/sim_time.h"

namespace dnsnoise {

/// A cached answer RRset (positive or negative).
struct CachedAnswer {
  RCode rcode = RCode::NoError;
  std::vector<ResourceRecord> answers;
  SimTime inserted = 0;
  SimTime expires = 0;
  bool disposable_hint = false;  // set by experiments that know ground truth
};

struct DnsCacheConfig {
  std::size_t capacity = 1 << 20;
  bool negative_cache = false;     // RFC 2308 negative caching
  std::uint32_t negative_ttl = 300;
  /// Some implementations clamp tiny TTLs up (paper §VI-A cites RFC 1536 /
  /// RFC 1912 behaviour of holding records a minimum time).
  std::uint32_t min_ttl = 0;
  std::uint32_t max_ttl = 86400;
  /// Section VI-A mitigation: entries flagged disposable are inserted at
  /// the cold end of the LRU, so they never displace useful records.
  bool low_priority_disposable = false;
};

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
  explicit DnsCache(const DnsCacheConfig& config);

  // --- Hot path (string_view, interned) ------------------------------------

  /// Fresh cached answer for (name, type), or nullptr (miss).  Misses and
  /// hits are tallied; expired entries are erased on access.  Never
  /// allocates; the pointer stays valid until the next mutating call.
  const CachedAnswer* lookup(std::string_view name, RRType type, SimTime now);

  /// Interns `name` into the cache's qname pool and returns its stable id.
  /// Unlike lookup(), this registers names the cache has never answered for
  /// (NXDOMAIN noise under negative_cache=false never reaches insert_*), so
  /// the traffic-sketch hook can key *every* query by a dense per-server id
  /// whose text and hash outlive the query.  Hashing cost is identical to
  /// lookup()'s own probe — one pass over the name bytes.
  NameId intern_name(std::string_view name) { return names_.intern(name); }

  /// lookup() for a pre-interned qname: same stats tallies, same expiry
  /// eviction, but keyed by id so the name bytes are not rehashed.  Pair
  /// with intern_name() when the caller needs the id anyway.
  const CachedAnswer* lookup_interned(NameId id, RRType type, SimTime now);

  /// The cache's qname intern pool (id -> text/hash).  Arena-stable views;
  /// the traffic sketch resolves ring records through this table.
  const NameTable& names() const noexcept { return names_; }

  /// Inserts a positive answer and returns the resident entry, or nullptr
  /// when the answer is uncacheable (empty set or effective TTL 0 after the
  /// [min_ttl, max_ttl] clamp).  `answers` is consumed (moved from) only on
  /// a non-null return, so callers may keep using it when the insert was
  /// declined.
  const CachedAnswer* insert_positive(std::string_view name, RRType type,
                                      std::vector<ResourceRecord>& answers,
                                      SimTime now,
                                      bool disposable_hint = false);

  /// Inserts a negative (NXDOMAIN) entry if negative caching is enabled.
  void insert_negative(std::string_view name, RRType type, SimTime now);

  // -------------------------------------------------------------------------

  const DnsCacheStats& stats() const noexcept { return stats_; }
  std::size_t size() const noexcept { return cache_.size(); }
  std::size_t capacity() const noexcept { return cache_.capacity(); }

  /// Visits every resident entry (fresh or expired), MRU first.  The
  /// visitor receives a materialized QuestionKey (this is the diagnostic /
  /// test path, not the hot one).
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    cache_.for_each([this, &visit](const Key& key, const CachedAnswer& value) {
      visit(QuestionKey{std::string(names_.name(key.name)), key.type}, value);
    });
  }

 private:
  /// Interned cache key with its precomputed hash (the LRU never rehashes
  /// key bytes).
  struct Key {
    NameId name = kInvalidNameId;
    RRType type = RRType::A;
    std::uint64_t hash = 0;

    friend bool operator==(const Key& a, const Key& b) noexcept {
      return a.name == b.name && a.type == b.type;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return static_cast<std::size_t>(key.hash);
    }
  };

  Key make_key(NameId id, RRType type) const noexcept {
    return Key{id, type,
               mix64(names_.name_hash(id) ^
                     mix64(static_cast<std::uint64_t>(type)))};
  }

  DnsCacheConfig config_;
  NameTable names_;  // qname intern pool; lives as long as the cache
  LruCache<Key, CachedAnswer, KeyHash> cache_;
  DnsCacheStats stats_;
  SimTime now_ = 0;  // updated on every lookup/insert, read by the listener
};

}  // namespace dnsnoise
