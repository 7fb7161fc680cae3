#include "features/chr.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace dnsnoise {
namespace {

TEST(ChrTest, CountsBelowAndAbove) {
  NameTable names;
  CacheHitRateTracker tracker(names);
  tracker.record_below("a.com", RRType::A, "1.1.1.1");
  tracker.record_below("a.com", RRType::A, "1.1.1.1");
  tracker.record_above("a.com", RRType::A, "1.1.1.1");
  const auto* counts = tracker.find({"a.com", RRType::A, "1.1.1.1"});
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->below, 2u);
  EXPECT_EQ(counts->above, 1u);
  EXPECT_EQ(tracker.unique_rrs(), 1u);
}

TEST(ChrTest, RecordBelowReportsFirstBelowSighting) {
  NameTable names;
  CacheHitRateTracker tracker(names);
  tracker.record_above("a.com", RRType::A, "1.1.1.1");  // miss: above first
  EXPECT_TRUE(tracker.record_below("a.com", RRType::A, "1.1.1.1"));
  EXPECT_FALSE(tracker.record_below("a.com", RRType::A, "1.1.1.1"));
  EXPECT_TRUE(tracker.record_below("a.com", RRType::A, "2.2.2.2"));
}

TEST(ChrTest, DistinctRdataAreDistinctRrs) {
  NameTable names;
  CacheHitRateTracker tracker(names);
  tracker.record_below("a.com", RRType::A, "1.1.1.1");
  tracker.record_below("a.com", RRType::A, "2.2.2.2");
  tracker.record_below("a.com", RRType::AAAA, "2001:db8::1");
  EXPECT_EQ(tracker.unique_rrs(), 3u);
  EXPECT_EQ(tracker.rrs_of(names.find("a.com")).size(), 3u);
}

TEST(ChrTest, DhrDefinition) {
  // Paper III-C2: DHR = cache hits / total queries; hits = below - above.
  CacheHitRateTracker::Counts counts;
  counts.below = 5;
  counts.above = 2;
  EXPECT_DOUBLE_EQ(CacheHitRateTracker::dhr(counts), 0.6);
}

TEST(ChrTest, DhrEdgeCases) {
  CacheHitRateTracker::Counts never_queried{0, 3, 0};
  EXPECT_EQ(CacheHitRateTracker::dhr(never_queried), 0.0);
  CacheHitRateTracker::Counts more_misses{2, 5, 0};
  EXPECT_EQ(CacheHitRateTracker::dhr(more_misses), 0.0);
  CacheHitRateTracker::Counts all_hits{4, 0, 0};
  EXPECT_EQ(CacheHitRateTracker::dhr(all_hits), 1.0);
}

TEST(ChrTest, PaperWorkedExample) {
  // Paper III-C2: an object with 2 misses and 5 total queries has CHR 0.6
  // for both misses.
  NameTable names;
  CacheHitRateTracker tracker(names);
  for (int i = 0; i < 5; ++i) {
    tracker.record_below("obj.example.com", RRType::A, "9.9.9.9");
  }
  for (int i = 0; i < 2; ++i) {
    tracker.record_above("obj.example.com", RRType::A, "9.9.9.9");
  }
  const auto distribution = tracker.chr_distribution();
  ASSERT_EQ(distribution.size(), 2u);
  EXPECT_DOUBLE_EQ(distribution[0], 0.6);
  EXPECT_DOUBLE_EQ(distribution[1], 0.6);
}

TEST(ChrTest, ChrDistributionIsMissWeighted) {
  NameTable names;
  CacheHitRateTracker tracker(names);
  // RR 1: 10 queries, 1 miss -> one 0.9 sample.
  for (int i = 0; i < 10; ++i) tracker.record_below("a.com", RRType::A, "1");
  tracker.record_above("a.com", RRType::A, "1");
  // RR 2: 3 queries, 3 misses -> three 0.0 samples.
  for (int i = 0; i < 3; ++i) {
    tracker.record_below("b.com", RRType::A, "2");
    tracker.record_above("b.com", RRType::A, "2");
  }
  auto distribution = tracker.chr_distribution();
  std::sort(distribution.begin(), distribution.end());
  ASSERT_EQ(distribution.size(), 4u);
  EXPECT_DOUBLE_EQ(distribution[0], 0.0);
  EXPECT_DOUBLE_EQ(distribution[2], 0.0);
  EXPECT_DOUBLE_EQ(distribution[3], 0.9);
}

TEST(ChrTest, AllDhrAlignsWithEntries) {
  NameTable names;
  CacheHitRateTracker tracker(names);
  tracker.record_below("a.com", RRType::A, "1");
  tracker.record_below("b.com", RRType::A, "2");
  tracker.record_above("b.com", RRType::A, "2");
  const auto dhr = tracker.all_dhr();
  ASSERT_EQ(dhr.size(), 2u);
  EXPECT_DOUBLE_EQ(dhr[0], 1.0);  // a.com: no misses observed
  EXPECT_DOUBLE_EQ(dhr[1], 0.0);  // b.com: 1 query, 1 miss
}

TEST(ChrTest, TtlRecordedOnFirstObservation) {
  NameTable names;
  CacheHitRateTracker tracker(names);
  tracker.record_above("a.com", RRType::A, "1", 300);
  tracker.record_below("a.com", RRType::A, "1", 999);  // ignored: not first
  const auto* counts = tracker.find({"a.com", RRType::A, "1"});
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->ttl, 300u);
}

TEST(ChrTest, RrsOfUnknownNameIsEmpty) {
  NameTable names;
  const CacheHitRateTracker tracker(names);
  EXPECT_TRUE(tracker.rrs_of(names.find("nope.com")).empty());
}

}  // namespace
}  // namespace dnsnoise
