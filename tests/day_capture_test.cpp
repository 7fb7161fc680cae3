#include "miner/day_capture.h"

#include <gtest/gtest.h>

#include "tap_feed.h"

namespace dnsnoise {
namespace {

Question question(const char* name) { return {DomainName(name), RRType::A}; }

std::vector<ResourceRecord> answer_rrs(const char* name, std::uint32_t ttl) {
  return {{DomainName(name), RRType::A, ttl, "10.0.0.1"}};
}

TEST(DayCaptureTest, BelowEventsBuildTreeAndChr) {
  DayCapture capture;
  TapFeed feed(capture);
  feed.below(100, 1, "a.example.com", RCode::NoError,
             answer_rrs("a.example.com", 60));
  feed.below(200, 2, "a.example.com", RCode::NoError,
             answer_rrs("a.example.com", 60));
  feed.above(150, "a.example.com", RCode::NoError,
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
// sighting (see DayCapture::on_tap_batch).
TEST(DayCaptureTest, AnswerSeenAboveThenBelowIsResolved) {
  DayCapture capture;
  TapFeed feed(capture);
  // A cache miss: the authority's answer is seen above, then below.
  feed.above(100, "a.example.com", RCode::NoError,
             answer_rrs("a.example.com", 60));
  feed.below(100, 1, "a.example.com", RCode::NoError,
             answer_rrs("a.example.com", 60));
  EXPECT_EQ(capture.unique_resolved(), 1u);
  EXPECT_EQ(capture.tree().black_count(), 1u);
  const NameId node = capture.tree().find(DomainName("a.example.com"));
  ASSERT_NE(node, kInvalidNameId);
  EXPECT_TRUE(capture.tree().black(node));
}

TEST(DayCaptureTest, AnswerSeenOnlyAboveIsNotResolved) {
  DayCapture capture;
  TapFeed feed(capture);
  feed.above(100, "a.example.com", RCode::NoError,
             answer_rrs("a.example.com", 60));
  EXPECT_EQ(capture.unique_resolved(), 0u);
  EXPECT_EQ(capture.tree().black_count(), 0u);
  EXPECT_EQ(capture.chr().unique_rrs(), 1u);
}

TEST(DayCaptureTest, RepeatedBelowSightingsOnlyCount) {
  DayCapture capture;
  TapFeed feed(capture);
  feed.below(100, 1, "a.example.com", RCode::NoError,
             answer_rrs("a.example.com", 60));
  const std::size_t nodes = capture.tree().node_count();
  const std::size_t black = capture.tree().black_count();
  for (int i = 0; i < 3; ++i) {
    feed.below(200 + i, 2, "a.example.com", RCode::NoError,
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
  TapFeed feed(capture);
  feed.below(100, 1, "nx.example.com", RCode::NXDomain, {});
  EXPECT_EQ(capture.unique_queried(), 1u);
  EXPECT_EQ(capture.unique_resolved(), 0u);
  EXPECT_EQ(capture.tree().black_count(), 0u);
  EXPECT_EQ(capture.below_series().sum_nxdomain(), 1u);
}

TEST(DayCaptureTest, HourlySeriesAndTenantAttribution) {
  DayCapture capture;
  TapFeed feed(capture);
  // 2 RRs at 01:00, google-owned.
  std::vector<ResourceRecord> google_answers = {
      {DomainName("mail.google.com"), RRType::A, 300, "10.0.0.1"},
      {DomainName("mail.google.com"), RRType::A, 300, "10.0.0.2"},
  };
  feed.below(1 * kSecondsPerHour + 30, 1, "mail.google.com", RCode::NoError,
             google_answers);
  // 1 RR at 23:00, akamai-owned, above.
  feed.above(23 * kSecondsPerHour, "e1.g.akamai.net", RCode::NoError,
             answer_rrs("e1.g.akamai.net", 20));

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
  TapFeed keeping_feed(keeping);
  keeping_feed.below(5, 9, "a.example.com", RCode::NoError,
                     answer_rrs("a.example.com", 60));
  ASSERT_EQ(keeping.fpdns().size(), 1u);
  EXPECT_EQ(keeping.fpdns().entries()[0].client_id, 9u);

  DayCapture discarding;
  TapFeed discarding_feed(discarding);
  discarding_feed.below(5, 9, "a.example.com", RCode::NoError,
                        answer_rrs("a.example.com", 60));
  EXPECT_TRUE(discarding.fpdns().empty());
}

TEST(DayCaptureTest, StartDayResetsPerDayState) {
  DayCapture capture;
  TapFeed feed(capture);
  feed.below(5, 1, "a.example.com", RCode::NoError,
             answer_rrs("a.example.com", 60));
  capture.start_day(9);
  EXPECT_EQ(capture.unique_queried(), 0u);
  EXPECT_EQ(capture.unique_resolved(), 0u);
  EXPECT_EQ(capture.tree().black_count(), 0u);
  EXPECT_EQ(capture.chr().unique_rrs(), 0u);
  EXPECT_EQ(capture.below_series().sum_total(), 0u);
  // The same producer feeds the new day from scratch.
  feed.below(6, 1, "a.example.com", RCode::NoError,
             answer_rrs("a.example.com", 60));
  EXPECT_EQ(capture.unique_resolved(), 1u);
  EXPECT_EQ(capture.chr().unique_rrs(), 1u);
}

TEST(DayCaptureTest, ProducersFeedOneCaptureInTurn) {
  // The second producer's table may land at the freed first one's
  // address; its ids must still not be read through the first's remap,
  // nor through what the capture decided about the first's names.  Each
  // decoder numbers its names from 0 in first-sight order, so the second
  // producer's ids 0, 1 and 2 name what the first's ids name in another
  // series class.
  DayCapture capture;
  {
    TapFeed first(capture);
    first.below(1, 1, "a.example.com", RCode::NoError,
                answer_rrs("a.example.com", 60));
    first.above(2, "mail.google.com", RCode::NXDomain);
    first.below(3, 1, "e1.g.akamai.net", RCode::NXDomain);
  }
  TapFeed second(capture);
  const SimTime two = 2 * kSecondsPerHour;
  second.below(two, 2, "www.google.com", RCode::NoError,
               answer_rrs("www.google.com", 60));
  second.above(two, "b.example.org", RCode::NXDomain);
  second.below(two, 2, "c.example.org", RCode::NXDomain);
  second.below(two, 2, "www.google.com", RCode::NoError,
               {{DomainName("www.google.com"), RRType::A, 60, "10.9.9.9"}});
  EXPECT_EQ(capture.unique_queried(), 4u);
  EXPECT_EQ(capture.unique_resolved(), 2u);
  EXPECT_NE(capture.chr().find({"www.google.com", RRType::A, "10.9.9.9"}),
            nullptr);

  const HourlySeries& below = capture.below_series();
  const HourlySeries& above = capture.above_series();
  EXPECT_EQ(below.google[0], 0u);
  EXPECT_EQ(below.akamai[0], 1u);
  EXPECT_EQ(above.google[0], 1u);
  EXPECT_EQ(below.total[2], 3u);
  EXPECT_EQ(below.google[2], 2u);
  EXPECT_EQ(below.akamai[2], 0u);
  EXPECT_EQ(above.total[2], 1u);
  EXPECT_EQ(above.google[2], 0u);
}

TEST(DayCaptureTest, NameSeenFirstAsRdataIsQueriedLater) {
  // x.google.com enters the capture's table as rdata text, with no parent,
  // then is queried: it must become a tree name, join the queried list
  // once and count in the google series every time.
  DayCapture capture;
  TapFeed feed(capture);
  feed.below(1 * kSecondsPerHour, 1, "alias.example.com", RCode::NoError,
             {{DomainName("alias.example.com"), RRType::CNAME, 60,
               "x.google.com"}});
  feed.below(2 * kSecondsPerHour, 2, "x.google.com", RCode::NXDomain);

  const NameTable& names = capture.names();
  const NameId id = names.find("x.google.com");
  ASSERT_NE(id, kInvalidNameId);
  EXPECT_TRUE(capture.tree().is_name(id));
  EXPECT_EQ(capture.tree().parent(id), names.find("google.com"));
  EXPECT_FALSE(capture.tree().contains(id));

  feed.below(3 * kSecondsPerHour, 3, "x.google.com", RCode::NoError,
             answer_rrs("x.google.com", 60));
  EXPECT_TRUE(capture.tree().black(id));
  const auto queried = capture.queried_names();
  ASSERT_EQ(queried.size(), 2u);
  EXPECT_EQ(names.name(queried[0]), "alias.example.com");
  EXPECT_EQ(queried[1], id);
  const auto resolved = capture.resolved_names();
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[1], id);
  EXPECT_NE(capture.chr().find({"alias.example.com", RRType::CNAME,
                                "x.google.com"}),
            nullptr);

  const HourlySeries& below = capture.below_series();
  EXPECT_EQ(below.total[1], 1u);
  EXPECT_EQ(below.google[1], 0u);
  EXPECT_EQ(below.google[2], 1u);
  EXPECT_EQ(below.nxdomain[2], 1u);
  EXPECT_EQ(below.google[3], 1u);
  EXPECT_EQ(below.sum_total(), 3u);
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
  cluster.query_view(1, question("w.example.com"), 10);
  cluster.query_view(1, question("w.example.com"), 20);
  cluster.flush_taps();  // tap events are batched until flushed
  EXPECT_EQ(capture.below_series().sum_total(), 2u);
  EXPECT_EQ(capture.above_series().sum_total(), 1u);
  EXPECT_EQ(capture.unique_resolved(), 1u);
  capture.detach(cluster);  // capture dies before the cluster does
}

}  // namespace
}  // namespace dnsnoise
