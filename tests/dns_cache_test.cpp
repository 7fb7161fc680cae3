#include "resolver/dns_cache.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace dnsnoise {
namespace {

/// The cache keys on ids of its owner's name table; tests own one.
NameTable names;

NameId id(const char* name) { return names.intern(name); }

std::vector<CompactRecord> one_answer(const char* name, std::uint32_t ttl,
                                      const char* rdata = "192.0.2.7") {
  return {compact_record(names, name, RRType::A, ttl, rdata)};
}

/// Inserts one A record for `name`; returns the resident entry or nullptr.
const CachedAnswer* insert_a(DnsCache& cache, const char* name,
                             std::uint32_t ttl, SimTime now,
                             bool disposable_hint = false) {
  const std::vector<CompactRecord> answers = one_answer(name, ttl);
  return cache.insert_positive(id(name), RRType::A, answers, now,
                               disposable_hint);
}

TEST(DnsCacheTest, MissThenHit) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  const char* name = "www.example.com";
  EXPECT_EQ(cache.lookup(id(name), RRType::A, 0), nullptr);
  insert_a(cache, name, 300, 0);
  const CachedAnswer* hit = cache.lookup(id(name), RRType::A, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rcode, RCode::NoError);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(DnsCacheTest, TtlExpiry) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  const char* name = "a.example.com";
  insert_a(cache, name, 60, 0);
  EXPECT_NE(cache.lookup(id(name), RRType::A, 59), nullptr);
  EXPECT_EQ(cache.lookup(id(name), RRType::A, 60), nullptr);  // expired at TTL
  EXPECT_EQ(cache.stats().expired_misses, 1u);
  // Expired entries are erased on access.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DnsCacheTest, ZeroTtlNotCached) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  const char* name = "zero.example.com";
  insert_a(cache, name, 0, 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(id(name), RRType::A, 0), nullptr);
}

TEST(DnsCacheTest, MinTtlClampHoldsRecordsLonger) {
  // RFC 1536-style minimum TTL: zero-TTL records are held anyway.
  DnsCacheConfig config;
  config.capacity = 16;
  config.min_ttl = 5;
  DnsCache cache(config);
  const char* name = "clamped.example.com";
  insert_a(cache, name, 0, 0);
  EXPECT_NE(cache.lookup(id(name), RRType::A, 4), nullptr);
  EXPECT_EQ(cache.lookup(id(name), RRType::A, 5), nullptr);
}

TEST(DnsCacheTest, MaxTtlClamp) {
  DnsCacheConfig config;
  config.capacity = 16;
  config.max_ttl = 100;
  DnsCache cache(config);
  const char* name = "huge.example.com";
  insert_a(cache, name, 1'000'000, 0);
  EXPECT_NE(cache.lookup(id(name), RRType::A, 99), nullptr);
  EXPECT_EQ(cache.lookup(id(name), RRType::A, 100), nullptr);
}

TEST(DnsCacheTest, MinTtlAcrossRRsOfSet) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  const std::vector<CompactRecord> answers = {
      compact_record(names, "m.example.com", RRType::A, 300, "192.0.2.1"),
      compact_record(names, "m.example.com", RRType::A, 30, "192.0.2.2"),
  };
  const char* name = "m.example.com";
  cache.insert_positive(id(name), RRType::A, answers, 0);
  EXPECT_NE(cache.lookup(id(name), RRType::A, 29), nullptr);
  EXPECT_EQ(cache.lookup(id(name), RRType::A, 30), nullptr);
}

TEST(DnsCacheTest, NegativeCacheDisabledByDefault) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  const char* name = "nx.example.com";
  cache.insert_negative(id(name), RRType::A, 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(id(name), RRType::A, 1), nullptr);
}

TEST(DnsCacheTest, NegativeCacheEnabled) {
  DnsCacheConfig config;
  config.capacity = 16;
  config.negative_cache = true;
  config.negative_ttl = 30;
  DnsCache cache(config);
  const char* name = "nx.example.com";
  cache.insert_negative(id(name), RRType::A, 0);
  const CachedAnswer* hit = cache.lookup(id(name), RRType::A, 10);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rcode, RCode::NXDomain);
  EXPECT_EQ(cache.lookup(id(name), RRType::A, 30), nullptr);
}

TEST(DnsCacheTest, PrematureEvictionAccounting) {
  // Capacity 2: inserting a third fresh entry evicts a still-fresh one.
  DnsCacheConfig config;
  config.capacity = 2;
  DnsCache cache(config);
  insert_a(cache, "a.com", 1000, 0);
  insert_a(cache, "b.com", 1000, 0, /*disposable_hint=*/true);
  insert_a(cache, "c.com", 1000, 0);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().premature_evictions, 1u);
  // The evicted entry ("a.com") was not disposable.
  EXPECT_EQ(cache.stats().premature_nondisposable_evictions, 1u);
}

TEST(DnsCacheTest, ExpiredEvictionIsNotPremature) {
  DnsCacheConfig config;
  config.capacity = 2;
  DnsCache cache(config);
  insert_a(cache, "a.com", 10, 0);
  insert_a(cache, "b.com", 1000, 0);
  // Advance time past a.com's TTL before forcing the eviction.
  (void)cache.lookup(id("b.com"), RRType::A, 500);
  insert_a(cache, "c.com", 1000, 500);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().premature_evictions, 0u);
}

TEST(DnsCacheTest, HitRateComputation) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  const char* name = "h.example.com";
  (void)cache.lookup(id(name), RRType::A, 0);  // miss
  insert_a(cache, name, 100, 0);
  (void)cache.lookup(id(name), RRType::A, 1);  // hit
  (void)cache.lookup(id(name), RRType::A, 2);  // hit
  (void)cache.lookup(id(name), RRType::A, 3);  // hit
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.75);
}

TEST(DnsCacheTest, EmptyAnswerNotCached) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  EXPECT_EQ(cache.insert_positive(id("e.com"), RRType::A, {}, 0), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DnsCacheTest, ForEachVisitsEntries) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  insert_a(cache, "a.com", 100, 0);
  insert_a(cache, "b.com", 100, 0);
  std::size_t count = 0;
  cache.for_each([&count](NameId name, RRType type, const CachedAnswer&) {
    EXPECT_TRUE(name == id("a.com") || name == id("b.com"));
    EXPECT_EQ(type, RRType::A);
    ++count;
  });
  EXPECT_EQ(count, 2u);
}

TEST(DnsCacheTest, StringViewPathMatchesQuestionKeyPath) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  const std::vector<CompactRecord> answers = one_answer("sv.example.com", 300);
  const CachedAnswer* resident =
      cache.insert_positive(id("sv.example.com"), RRType::A, answers, 0);
  ASSERT_NE(resident, nullptr);
  ASSERT_EQ(resident->answers.size(), 1u);
  EXPECT_TRUE(resident->answers[0].same_rr(answers[0]));
  EXPECT_EQ(cache.lookup(id("sv.example.com"), RRType::A, 10), resident);
  // Same name, different qtype is a distinct key.
  EXPECT_EQ(cache.lookup(id("sv.example.com"), RRType::AAAA, 10), nullptr);
}

TEST(DnsCacheTest, LookupOfNeverInternedNameCountsMiss) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  insert_a(cache, "known.example.com", 300, 0);
  // A name the cache never stored is a plain miss, accounted exactly like
  // any other.
  EXPECT_EQ(cache.lookup(id("unknown.example.com"), RRType::A, 0), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(DnsCacheTest, DeclinedInsertLeavesAnswersIntact) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  const std::vector<CompactRecord> answers = one_answer("zero.example.com", 0);
  // TTL 0 is not cacheable: insert_positive returns nullptr and leaves the
  // caller's records alone (the cluster still serves them).
  EXPECT_EQ(
      cache.insert_positive(id("zero.example.com"), RRType::A, answers, 0),
      nullptr);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(to_resource_record(answers[0], names).rdata, "192.0.2.7");
}

TEST(DnsCacheTest, ResidentPointerReflectsLatestInsert) {
  DnsCache cache(DnsCacheConfig{.capacity = 16});
  const std::vector<CompactRecord> first = one_answer("up.example.com", 300);
  const std::vector<CompactRecord> second =
      one_answer("up.example.com", 300, "198.51.100.9");
  cache.insert_positive(id("up.example.com"), RRType::A, first, 0);
  const CachedAnswer* resident =
      cache.insert_positive(id("up.example.com"), RRType::A, second, 1);
  ASSERT_NE(resident, nullptr);
  ASSERT_EQ(resident->answers.size(), 1u);
  EXPECT_EQ(to_resource_record(resident->answers[0], names).rdata,
            "198.51.100.9");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DnsCacheTest, LargeAnswerSetsSpillAndRoundTrip) {
  // Sets up to CachedRecords::kInline live in the entry; larger ones spill
  // to one heap block.  Both must hand back every record in order.
  for (const std::size_t count : {std::size_t{1}, CachedRecords::kInline,
                                  CachedRecords::kInline + 2}) {
    DnsCache cache(DnsCacheConfig{.capacity = 16});
    std::vector<CompactRecord> answers;
    for (std::size_t i = 0; i < count; ++i) {
      answers.push_back(compact_record(names, "set.example.com", RRType::A,
                                       300,
                                       "192.0.2." + std::to_string(i + 1)));
    }
    const CachedAnswer* resident =
        cache.insert_positive(id("set.example.com"), RRType::A, answers, 0);
    ASSERT_NE(resident, nullptr);
    ASSERT_EQ(resident->answers.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(resident->answers[i].same_rr(answers[i])) << i;
    }
  }
}

TEST(DnsCacheTest, InvertedTtlClampIsRejected) {
  // std::clamp with min > max is undefined; the cache refuses the config.
  DnsCacheConfig config;
  config.min_ttl = 600;
  config.max_ttl = 60;
  EXPECT_NE(cache_config_error(config), nullptr);
  EXPECT_THROW(DnsCache{config}, std::invalid_argument);
  config.max_ttl = 600;  // min == max is a fixed TTL, which is fine
  EXPECT_EQ(cache_config_error(config), nullptr);
  EXPECT_NO_THROW(DnsCache{config});
}

}  // namespace
}  // namespace dnsnoise
