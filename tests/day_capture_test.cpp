#include "miner/day_capture.h"

#include <gtest/gtest.h>

namespace dnsnoise {
namespace {

Question question(const char* name) { return {DomainName(name), RRType::A}; }

std::vector<ResourceRecord> answer_rrs(const char* name, std::uint32_t ttl) {
  return {{DomainName(name), RRType::A, ttl, "10.0.0.1"}};
}

TEST(DayCaptureTest, BelowEventsBuildTreeAndChr) {
  DayCapture capture;
  capture.on_below(100, 1, question("a.example.com"), RCode::NoError,
                   answer_rrs("a.example.com", 60));
  capture.on_below(200, 2, question("a.example.com"), RCode::NoError,
                   answer_rrs("a.example.com", 60));
  capture.on_above(150, question("a.example.com"), RCode::NoError,
                   answer_rrs("a.example.com", 60));

  EXPECT_EQ(capture.unique_queried(), 1u);
  EXPECT_EQ(capture.unique_resolved(), 1u);
  EXPECT_EQ(capture.tree().black_count(), 1u);
  const auto* counts =
      capture.chr().find({"a.example.com", RRType::A, "10.0.0.1"});
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->below, 2u);
  EXPECT_EQ(counts->above, 1u);
  EXPECT_EQ(counts->ttl, 60u);
}

// The tree and the resolved set change only on an RR's first below
// sighting (see DayCapture::on_below).
TEST(DayCaptureTest, AnswerSeenAboveThenBelowIsResolved) {
  DayCapture capture;
  // A cache miss: the authority's answer is seen above, then below.
  capture.on_above(100, question("a.example.com"), RCode::NoError,
                   answer_rrs("a.example.com", 60));
  capture.on_below(100, 1, question("a.example.com"), RCode::NoError,
                   answer_rrs("a.example.com", 60));
  EXPECT_EQ(capture.unique_resolved(), 1u);
  EXPECT_EQ(capture.tree().black_count(), 1u);
  const NameId node = capture.tree().find(DomainName("a.example.com"));
  ASSERT_NE(node, kInvalidNameId);
  EXPECT_TRUE(capture.tree().black(node));
}

TEST(DayCaptureTest, AnswerSeenOnlyAboveIsNotResolved) {
  DayCapture capture;
  capture.on_above(100, question("a.example.com"), RCode::NoError,
                   answer_rrs("a.example.com", 60));
  EXPECT_EQ(capture.unique_resolved(), 0u);
  EXPECT_EQ(capture.tree().black_count(), 0u);
  EXPECT_EQ(capture.chr().unique_rrs(), 1u);
}

TEST(DayCaptureTest, RepeatedBelowSightingsOnlyCount) {
  DayCapture capture;
  capture.on_below(100, 1, question("a.example.com"), RCode::NoError,
                   answer_rrs("a.example.com", 60));
  const std::size_t nodes = capture.tree().node_count();
  const std::size_t black = capture.tree().black_count();
  for (int i = 0; i < 3; ++i) {
    capture.on_below(200 + i, 2, question("a.example.com"), RCode::NoError,
                     answer_rrs("a.example.com", 60));
  }
  EXPECT_EQ(capture.tree().node_count(), nodes);
  EXPECT_EQ(capture.tree().black_count(), black);
  EXPECT_EQ(capture.unique_resolved(), 1u);
  const auto* counts =
      capture.chr().find({"a.example.com", RRType::A, "10.0.0.1"});
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->below, 4u);
}

TEST(DayCaptureTest, NxdomainCountsAsQueriedNotResolved) {
  DayCapture capture;
  capture.on_below(100, 1, question("nx.example.com"), RCode::NXDomain, {});
  EXPECT_EQ(capture.unique_queried(), 1u);
  EXPECT_EQ(capture.unique_resolved(), 0u);
  EXPECT_EQ(capture.tree().black_count(), 0u);
  EXPECT_EQ(capture.below_series().sum_nxdomain(), 1u);
}

TEST(DayCaptureTest, HourlySeriesAndTenantAttribution) {
  DayCapture capture;
  // 2 RRs at 01:00, google-owned.
  std::vector<ResourceRecord> google_answers = {
      {DomainName("mail.google.com"), RRType::A, 300, "10.0.0.1"},
      {DomainName("mail.google.com"), RRType::A, 300, "10.0.0.2"},
  };
  capture.on_below(1 * kSecondsPerHour + 30, 1, question("mail.google.com"),
                   RCode::NoError, google_answers);
  // 1 RR at 23:00, akamai-owned, above.
  capture.on_above(23 * kSecondsPerHour, question("e1.g.akamai.net"),
                   RCode::NoError, answer_rrs("e1.g.akamai.net", 20));

  const HourlySeries& below = capture.below_series();
  EXPECT_EQ(below.total[1], 2u);
  EXPECT_EQ(below.google[1], 2u);
  EXPECT_EQ(below.akamai[1], 0u);
  EXPECT_EQ(below.sum_total(), 2u);
  const HourlySeries& above = capture.above_series();
  EXPECT_EQ(above.total[23], 1u);
  EXPECT_EQ(above.akamai[23], 1u);
}

TEST(DayCaptureTest, FpdnsKeptOnlyWhenConfigured) {
  DayCaptureConfig config;
  config.keep_fpdns = true;
  DayCapture keeping(config);
  keeping.on_below(5, 9, question("a.example.com"), RCode::NoError,
                   answer_rrs("a.example.com", 60));
  ASSERT_EQ(keeping.fpdns().size(), 1u);
  EXPECT_EQ(keeping.fpdns().entries()[0].client_id, 9u);

  DayCapture discarding;
  discarding.on_below(5, 9, question("a.example.com"), RCode::NoError,
                      answer_rrs("a.example.com", 60));
  EXPECT_TRUE(discarding.fpdns().empty());
}

TEST(DayCaptureTest, RpdnsFeedAccumulatesAcrossDays) {
  DayCaptureConfig config;
  config.feed_rpdns = true;
  config.day_index = 1;
  DayCapture capture(config);
  capture.on_below(5, 1, question("a.example.com"), RCode::NoError,
                   answer_rrs("a.example.com", 60));
  capture.start_day(2);
  capture.on_below(5, 1, question("a.example.com"), RCode::NoError,
                   answer_rrs("a.example.com", 60));
  capture.on_below(6, 1, question("b.example.com"), RCode::NoError,
                   answer_rrs("b.example.com", 60));
  // start_day reset the per-day state but kept the rpDNS store.
  EXPECT_EQ(capture.rpdns().unique_records(), 2u);
  EXPECT_EQ(capture.rpdns().new_records_on(1), 1u);
  EXPECT_EQ(capture.rpdns().new_records_on(2), 1u);
  EXPECT_EQ(capture.unique_queried(), 2u);  // day 2 only
}

TEST(DayCaptureTest, StartDayResetsPerDayState) {
  DayCapture capture;
  capture.on_below(5, 1, question("a.example.com"), RCode::NoError,
                   answer_rrs("a.example.com", 60));
  capture.start_day(9);
  EXPECT_EQ(capture.unique_queried(), 0u);
  EXPECT_EQ(capture.unique_resolved(), 0u);
  EXPECT_EQ(capture.tree().black_count(), 0u);
  EXPECT_EQ(capture.chr().unique_rrs(), 0u);
  EXPECT_EQ(capture.below_series().sum_total(), 0u);
}

TEST(DayCaptureTest, AttachWiresClusterSinks) {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(300));
  ClusterConfig config;
  config.server_count = 1;
  RdnsCluster cluster(config, authority);
  DayCapture capture;
  capture.attach(cluster);
  cluster.query(1, question("w.example.com"), 10);
  cluster.query(1, question("w.example.com"), 20);
  cluster.flush_taps();  // tap events are batched until flushed
  EXPECT_EQ(capture.below_series().sum_total(), 2u);
  EXPECT_EQ(capture.above_series().sum_total(), 1u);
  EXPECT_EQ(capture.unique_resolved(), 1u);
  capture.detach(cluster);  // capture dies before the cluster does
}

}  // namespace
}  // namespace dnsnoise
