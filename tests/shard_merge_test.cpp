// Shard-merge unit tests: the per-structure union/summation operations the
// engine composes (see engine/shard_merge.h).
#include "engine/shard_merge.h"

#include <gtest/gtest.h>

#include "features/chr.h"
#include "features/domain_tree.h"
#include "tap_feed.h"

namespace dnsnoise {
namespace {

std::vector<ResourceRecord> answer_rrs(const char* name, std::uint32_t ttl,
                                       const char* rdata = "10.0.0.1") {
  return {{DomainName(name), RRType::A, ttl, rdata}};
}

/// A tree and a CHR tracker over one table, as a capture holds them.
struct Shard {
  NameTable names;
  DomainNameTree tree{names};
  CacheHitRateTracker chr{names};

  /// Merges `other` the way DayCapture::merge_from does.
  void merge_from(const Shard& other) {
    const std::vector<NameId> remap = names.intern_all(other.names);
    tree.merge_from(other.tree, remap);
    chr.merge_from(other.chr, remap);
  }
};

TEST(ShardMergeTest, DomainTreeUnionKeepsBlackNodesAndCounts) {
  Shard sa;
  DomainNameTree& a = sa.tree;
  a.insert(DomainName("x.example.com"));
  a.insert(DomainName("shared.example.com"));
  Shard sb;
  DomainNameTree& b = sb.tree;
  b.insert(DomainName("y.example.com"));
  b.insert(DomainName("shared.example.com"));
  b.insert(DomainName("deep.y.example.com"));

  sa.merge_from(sb);
  EXPECT_EQ(a.black_count(), 4u);  // x, y, shared, deep.y
  // root + com + example + x + shared + y + deep = 7
  EXPECT_EQ(a.node_count(), 7u);
  const NameId deep = a.find(DomainName("deep.y.example.com"));
  ASSERT_NE(deep, kInvalidNameId);
  EXPECT_TRUE(a.black(deep));
  EXPECT_EQ(a.depth(deep), 4u);
  EXPECT_EQ(a.name(deep), "deep.y.example.com");
  // y was only inserted as a leaf in b, black there; x untouched by merge.
  EXPECT_TRUE(a.black(a.find(DomainName("y.example.com"))));
  EXPECT_TRUE(a.black(a.find(DomainName("x.example.com"))));
  // Intermediate nodes stay white.
  EXPECT_FALSE(a.black(a.find(DomainName("example.com"))));
}

TEST(ShardMergeTest, DomainTreeMergeIsIdempotentOnEqualTrees) {
  Shard sa;
  DomainNameTree& a = sa.tree;
  a.insert(DomainName("x.example.com"));
  Shard sb;
  sb.tree.insert(DomainName("x.example.com"));
  sa.merge_from(sb);
  EXPECT_EQ(a.black_count(), 1u);
  EXPECT_EQ(a.node_count(), 4u);
}

TEST(ShardMergeTest, ChrMergeSumsBelowAndAboveCounts) {
  Shard sa;
  CacheHitRateTracker& a = sa.chr;
  a.record_below("a.example.com", RRType::A, "10.0.0.1", 60);
  a.record_below("a.example.com", RRType::A, "10.0.0.1");
  a.record_above("a.example.com", RRType::A, "10.0.0.1");
  Shard sb;
  CacheHitRateTracker& b = sb.chr;
  b.record_below("a.example.com", RRType::A, "10.0.0.1", 90);
  b.record_above("b.example.com", RRType::A, "10.0.0.2", 30);

  sa.merge_from(sb);
  EXPECT_EQ(a.unique_rrs(), 2u);
  const auto* shared = a.find({"a.example.com", RRType::A, "10.0.0.1"});
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->below, 3u);
  EXPECT_EQ(shared->above, 1u);
  EXPECT_EQ(shared->ttl, 60u);  // the merge target's TTL wins
  const auto* fresh = a.find({"b.example.com", RRType::A, "10.0.0.2"});
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->below, 0u);
  EXPECT_EQ(fresh->above, 1u);
  EXPECT_EQ(fresh->ttl, 30u);  // new entry takes the source's TTL
}

TEST(ShardMergeTest, HourlySeriesAddsSlotWise) {
  HourlySeries a;
  a.total[3] = 5;
  a.nxdomain[3] = 1;
  a.google[7] = 2;
  HourlySeries b;
  b.total[3] = 7;
  b.akamai[9] = 4;
  a += b;
  EXPECT_EQ(a.total[3], 12u);
  EXPECT_EQ(a.nxdomain[3], 1u);
  EXPECT_EQ(a.google[7], 2u);
  EXPECT_EQ(a.akamai[9], 4u);
  EXPECT_EQ(a.sum_total(), 12u);
}

TEST(ShardMergeTest, DayCaptureMergeUnionsEverything) {
  DayCaptureConfig config;
  config.keep_fpdns = true;
  DayCapture a(config);
  DayCapture b(config);
  a.start_day(1);
  b.start_day(1);
  TapFeed feed_a(a);
  TapFeed feed_b(b);
  feed_a.below(2 * kSecondsPerHour, 1, "a.example.com", RCode::NoError,
               answer_rrs("a.example.com", 60));
  feed_b.below(1 * kSecondsPerHour, 2, "b.example.com", RCode::NoError,
               answer_rrs("b.example.com", 60, "10.0.0.2"));
  feed_b.above(3 * kSecondsPerHour, "a.example.com", RCode::NoError,
               answer_rrs("a.example.com", 60));

  a.merge_from(b);
  a.fpdns().stable_sort_by_time();
  EXPECT_EQ(a.unique_queried(), 2u);
  EXPECT_EQ(a.unique_resolved(), 2u);
  EXPECT_EQ(a.tree().black_count(), 2u);
  EXPECT_EQ(a.chr().unique_rrs(), 2u);
  EXPECT_EQ(a.below_series().sum_total(), 2u);
  EXPECT_EQ(a.above_series().sum_total(), 1u);
  ASSERT_EQ(a.fpdns().size(), 3u);
  // Sorted back into tap time order: b's below entry came first.
  EXPECT_EQ(a.fpdns().entries()[0].qname, "b.example.com");
  EXPECT_EQ(a.fpdns().entries()[1].qname, "a.example.com");
  const auto* counts = a.chr().find({"a.example.com", RRType::A, "10.0.0.1"});
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->below, 1u);
  EXPECT_EQ(counts->above, 1u);
}

TEST(ShardMergeTest, MergeShardsStopsAtFirstError) {
  std::vector<ShardResult> shards;
  shards.emplace_back();
  shards.emplace_back();
  shards[0].counters.below_answers = 3;
  shards[1].error = "boom";
  shards[1].counters.below_answers = 9;

  DayCapture total;
  total.start_day(0);
  std::string error;
  merge_shards(shards, total, error);
  EXPECT_EQ(error, "shard 1: boom");
}

TEST(ShardMergeTest, MergeShardsSumsCounters) {
  std::vector<ShardResult> shards;
  shards.emplace_back();
  shards.emplace_back();
  shards[0].counters.below_answers = 3;
  shards[0].counters.above_answers = 1;
  shards[0].counters.stats.hits = 2;
  shards[1].counters.below_answers = 4;
  shards[1].counters.stats.hits = 5;

  DayCapture total;
  total.start_day(0);
  std::string error;
  const ShardCounters counters = merge_shards(shards, total, error);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(counters.below_answers, 7u);
  EXPECT_EQ(counters.above_answers, 1u);
  EXPECT_EQ(counters.stats.hits, 7u);
}

}  // namespace
}  // namespace dnsnoise
