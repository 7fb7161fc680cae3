// Shard-merge unit tests: the per-structure union/summation operations the
// engine composes (see engine/shard_merge.h).
#include "engine/shard_merge.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/drive.h"
#include "engine/thread_pool.h"
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

/// A small day split over `shard_count` servers and driven by hand, as
/// the engine drives its shards: one shard capture each, fpDNS kept.
std::vector<ShardResult> drive_shards(const Scenario& scenario,
                                      std::size_t shard_count) {
  DayCaptureConfig config;
  config.keep_fpdns = true;
  ClusterConfig cluster;
  cluster.server_count = shard_count;
  cluster.cache.capacity = 1 << 12;
  const std::int64_t day = scenario_day_index(ScenarioDate::kDec30);
  const DayPlan plan = scenario.traffic().plan_day(day, shard_count);
  std::vector<ShardResult> shards;
  for (std::size_t i = 0; i < shard_count; ++i) shards.emplace_back(config);
  for (std::size_t index = 0; index < shard_count; ++index) {
    RdnsCluster server(cluster.for_shard(index), scenario.authority());
    Question question;
    DayCapture& capture = shards[index].capture;
    capture.start_day(day);
    capture.attach(server);
    drive_day(scenario.traffic(), plan, index, server, question, nullptr);
    server.flush_taps();
    capture.detach(server);
  }
  return shards;
}

std::vector<NameId> children_of(const DomainNameTree& tree, NameId id) {
  std::vector<NameId> children;
  for (NameId child = tree.first_child(id); child != kInvalidNameId;
       child = tree.next_sibling(child)) {
    children.push_back(child);
  }
  std::sort(children.begin(), children.end());
  return children;
}

/// Everything a merged capture holds, compared between two captures.
void expect_same_capture(const DayCapture& want, const DayCapture& got) {
  ASSERT_EQ(got.names().size(), want.names().size());
  for (NameId id = 0; id < want.names().size(); ++id) {
    ASSERT_EQ(got.names().name(id), want.names().name(id)) << id;
  }
  const auto want_rrs = want.chr().entries();
  const auto got_rrs = got.chr().entries();
  ASSERT_EQ(got_rrs.size(), want_rrs.size());
  for (std::size_t i = 0; i < want_rrs.size(); ++i) {
    EXPECT_TRUE(got_rrs[i].first.same_rr(want_rrs[i].first)) << "rr " << i;
    EXPECT_EQ(got_rrs[i].second.below, want_rrs[i].second.below) << i;
    EXPECT_EQ(got_rrs[i].second.above, want_rrs[i].second.above) << i;
    EXPECT_EQ(got_rrs[i].second.ttl, want_rrs[i].second.ttl) << i;
  }
  EXPECT_TRUE(std::ranges::equal(got.queried_names(), want.queried_names()));
  EXPECT_TRUE(std::ranges::equal(got.resolved_names(), want.resolved_names()));
  EXPECT_TRUE(std::ranges::equal(got.fpdns().entries(),
                                 want.fpdns().entries()));
  for (const auto& [got_series, want_series] :
       {std::pair(&got.below_series(), &want.below_series()),
        std::pair(&got.above_series(), &want.above_series())}) {
    EXPECT_EQ(got_series->total, want_series->total);
    EXPECT_EQ(got_series->nxdomain, want_series->nxdomain);
    EXPECT_EQ(got_series->google, want_series->google);
    EXPECT_EQ(got_series->akamai, want_series->akamai);
  }
  const DomainNameTree& want_tree = want.tree();
  const DomainNameTree& got_tree = got.tree();
  EXPECT_EQ(got_tree.node_count(), want_tree.node_count());
  for (NameId id = 0; id < want.names().size(); ++id) {
    ASSERT_EQ(got_tree.is_name(id), want_tree.is_name(id)) << id;
    ASSERT_EQ(got_tree.contains(id), want_tree.contains(id)) << id;
    if (!want_tree.is_name(id)) continue;
    ASSERT_EQ(got_tree.parent(id), want_tree.parent(id)) << id;
    ASSERT_EQ(got_tree.depth(id), want_tree.depth(id)) << id;
    if (!want_tree.contains(id)) continue;
    ASSERT_EQ(got_tree.black(id), want_tree.black(id)) << id;
    ASSERT_EQ(children_of(got_tree, id), children_of(want_tree, id)) << id;
  }
}

TEST(ShardMergeTest, MergeIntoShardZeroEqualsTheFold) {
  // merge_shards moves shard 0 into the result and merges the others on
  // a pool; a fold of every shard into an empty capture, written here,
  // is the definition it must match, child order aside.
  ScenarioScale scale;
  scale.queries_per_day = 6'000;
  scale.client_count = 400;
  const Scenario scenario(ScenarioDate::kDec30, scale);
  DayCaptureConfig config;
  config.keep_fpdns = true;
  ThreadPool pool(3);
  for (const std::size_t shard_count : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(shard_count);
    std::vector<ShardResult> shards = drive_shards(scenario, shard_count);
    DayCapture fold(config);
    fold.start_day(0);
    for (const ShardResult& shard : shards) fold.merge_from(shard.capture);
    fold.fpdns().stable_sort_by_time();

    DayCapture merged(config);
    merged.start_day(0);
    std::string error;
    merge_shards(shards, merged, error, on_pool(&pool));
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_GT(merged.chr().unique_rrs(), 0u);
    expect_same_capture(fold, merged);
    // Every shard's capture was freed.
    for (const ShardResult& shard : shards) {
      EXPECT_EQ(shard.capture.names().size(), 1u);
    }
  }
}

}  // namespace
}  // namespace dnsnoise
