// Tests for the Section VI-A mitigation mechanism (low-priority caching of
// disposable entries) and for the cross-date model-transfer protocol (one
// trained classifier applied to other dates, the paper's deployment mode).
#include <gtest/gtest.h>

#include "engine/parallel_miner.h"
#include "ml/lad_tree.h"
#include "resolver/dns_cache.h"

namespace dnsnoise {
namespace {

// --------------------------------------------------------------------------
// LruCache::put_cold

TEST(PutColdTest, ColdEntriesEvictFirst) {
  LruCache<int, int> cache(3);
  cache.put(1, 1);
  cache.put_cold(2, 2);  // cold: first eviction candidate
  cache.put(3, 3);
  cache.put(4, 4);       // evicts the cold entry, not 1
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
}

TEST(PutColdTest, GetPromotesColdEntry) {
  LruCache<int, int> cache(3);
  cache.put_cold(1, 1);
  cache.put(2, 2);
  cache.put(3, 3);
  EXPECT_NE(cache.get(1), nullptr);  // promote
  cache.put(4, 4);                   // now evicts 2 (the real LRU)
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_EQ(cache.get(2), nullptr);
}

TEST(PutColdTest, UpdateDemotesToCold) {
  LruCache<int, int> cache(2);
  cache.put(1, 1);
  cache.put(2, 2);
  cache.put_cold(1, 9);  // demote + replace value
  EXPECT_EQ(*cache.peek(1), 9);
  cache.put(3, 3);  // evicts 1, now the coldest
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(2), nullptr);
}

TEST(PutColdTest, RespectsCapacityAndListener) {
  LruCache<int, int> cache(2);
  std::vector<int> victims;
  cache.set_eviction_listener(
      [&victims](const int& key, const int&) { victims.push_back(key); });
  cache.put_cold(1, 1);
  cache.put_cold(2, 2);
  cache.put_cold(3, 3);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_EQ(victims.size(), 1u);
  // put_cold appends at the back; the previous back (2) is the victim.
  EXPECT_EQ(victims[0], 2);
}

// --------------------------------------------------------------------------
// DnsCache low-priority policy

/// The cache keys on ids of its owner's name table.
NameTable cache_names;

/// Inserts one A record for `name` at time 0.
void insert_a(DnsCache& cache, const std::string& name,
              bool disposable_hint = false) {
  const CompactRecord answer =
      compact_record(cache_names, name, RRType::A, 1000, "192.0.2.7");
  cache.insert_positive(answer.owner, RRType::A, {&answer, 1}, 0,
                        disposable_hint);
}

TEST(LowPriorityCacheTest, DisposableEntriesNeverDisplaceUsefulOnes) {
  DnsCacheConfig config;
  config.capacity = 2;
  config.low_priority_disposable = true;
  DnsCache cache(config);
  insert_a(cache, "useful.com");
  // A stream of disposable inserts churns only the cold slot.
  for (int i = 0; i < 10; ++i) {
    const std::string name = "d" + std::to_string(i) + ".zone.com";
    insert_a(cache, name, /*disposable_hint=*/true);
  }
  EXPECT_NE(cache.lookup(cache_names.intern("useful.com"), RRType::A, 1),
            nullptr);
  EXPECT_EQ(cache.stats().premature_nondisposable_evictions, 0u);
  EXPECT_EQ(cache.stats().evictions, 9u);
}

TEST(LowPriorityCacheTest, PolicyOffDisplacesUsefulEntries) {
  DnsCacheConfig config;
  config.capacity = 2;
  DnsCache cache(config);
  insert_a(cache, "useful.com");
  for (int i = 0; i < 10; ++i) {
    const std::string name = "d" + std::to_string(i) + ".zone.com";
    insert_a(cache, name, /*disposable_hint=*/true);
  }
  EXPECT_EQ(cache.lookup(cache_names.intern("useful.com"), RRType::A, 1),
            nullptr);
  EXPECT_GE(cache.stats().premature_nondisposable_evictions, 1u);
}

// --------------------------------------------------------------------------
// Cross-date model transfer (the paper's one-model campaign)

TEST(ModelTransferTest, NovemberModelMinesOtherDatesWithHighPrecision) {
  ScenarioScale scale;
  scale.queries_per_day = 90'000;
  scale.client_count = 4'000;
  scale.population_scale = 0.5;
  LabelerConfig labeler;
  labeler.min_group_size = 8;
  MiningSession session(scale);
  session.labeler(labeler).threads(2);

  DayCapture capture;
  ASSERT_TRUE(session.simulate(ScenarioDate::kNov14, capture).ok());
  const Scenario november(ScenarioDate::kNov14, scale);
  LadTree model;
  model.train(to_dataset(
      label_zones(capture.tree(), capture.chr(), november, labeler)));

  session.pretrained(&model);
  for (const ScenarioDate date : {ScenarioDate::kFeb01, ScenarioDate::kDec30}) {
    const MiningDayResult result = session.run(date);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_GT(result.evaluation.findings, 20u) << scenario_date_name(date);
    EXPECT_GT(result.evaluation.finding_precision(), 0.9)
        << scenario_date_name(date);
  }
}

TEST(ModelTransferTest, SerializedModelMinesIdentically) {
  ScenarioScale scale;
  scale.queries_per_day = 60'000;
  scale.client_count = 3'000;
  scale.population_scale = 0.4;
  LabelerConfig labeler;
  labeler.min_group_size = 8;
  MiningSession session(scale);
  session.threads(2);

  DayCapture capture;
  ASSERT_TRUE(session.simulate(ScenarioDate::kNov14, capture).ok());
  const Scenario scenario(ScenarioDate::kNov14, scale);
  LadTree model;
  model.train(to_dataset(
      label_zones(capture.tree(), capture.chr(), scenario, labeler)));
  const auto restored = LadTree::deserialize(model.serialize());
  ASSERT_TRUE(restored);

  // Mining with the restored model yields the exact same findings.
  DayCapture capture2;
  ASSERT_TRUE(session.simulate(ScenarioDate::kNov14, capture2).ok());
  const DisposableZoneMiner original_miner(model);
  const DisposableZoneMiner restored_miner(*restored);
  auto findings_a = original_miner.mine(capture.tree(), capture.chr());
  auto findings_b = restored_miner.mine(capture2.tree(), capture2.chr());
  ASSERT_EQ(findings_a.size(), findings_b.size());
  for (std::size_t i = 0; i < findings_a.size(); ++i) {
    EXPECT_EQ(findings_a[i].zone, findings_b[i].zone);
    EXPECT_EQ(findings_a[i].depth, findings_b[i].depth);
    EXPECT_DOUBLE_EQ(findings_a[i].confidence, findings_b[i].confidence);
  }
}

}  // namespace
}  // namespace dnsnoise
