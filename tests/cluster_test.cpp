#include "resolver/cluster.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace dnsnoise {
namespace {

Question question(const char* name) { return {DomainName(name), RRType::A}; }

/// The first client id the cluster routes to `server` of `server_count`.
std::uint64_t client_on(std::size_t server, std::size_t server_count) {
  std::uint64_t client = 1;
  while (shard_of(client, server_count) != server) ++client;
  return client;
}

SyntheticAuthority make_authority() {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(300));
  return authority;
}

TEST(ClusterTest, MissThenHitSameClient) {
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 4;
  RdnsCluster cluster(config, authority);

  // A view lives until the next query: copy the first one's answers out.
  const auto first = cluster.query_view(1, question("www.example.com"), 0);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.rcode, RCode::NoError);
  std::vector<ResourceRecord> first_answers;
  to_resource_records(first.answers, cluster.names(), first_answers);
  EXPECT_FALSE(first_answers.empty());
  const auto second = cluster.query_view(1, question("www.example.com"), 10);
  EXPECT_TRUE(second.cache_hit);
  std::vector<ResourceRecord> second_answers;
  to_resource_records(second.answers, cluster.names(), second_answers);
  EXPECT_EQ(second_answers, first_answers);
  EXPECT_EQ(cluster.below_answers(), 2u);
  EXPECT_EQ(cluster.above_answers(), 1u);
}

TEST(ClusterTest, ClientHashIsSticky) {
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 8;
  RdnsCluster cluster(config, authority);
  std::set<std::size_t> servers;
  for (int i = 0; i < 20; ++i) {
    servers.insert(
        cluster.query_view(42, question("www.example.com"), i).server);
  }
  EXPECT_EQ(servers.size(), 1u);
}

TEST(ClusterTest, IndependentCachesMissIndependently) {
  // Different servers have different caches: one client per server, each
  // asking twice, misses once per server.
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 3;
  RdnsCluster cluster(config, authority);
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t client = client_on(i % 3, 3);
    EXPECT_EQ(cluster.query_view(client, question("www.example.com"), i).server,
              static_cast<std::size_t>(i % 3));
  }
  EXPECT_EQ(cluster.above_answers(), 3u);  // one cold miss per server
}

TEST(ClusterTest, NxdomainNotCachedByDefault) {
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 1;
  RdnsCluster cluster(config, authority);
  for (int i = 0; i < 5; ++i) {
    const auto outcome =
        cluster.query_view(1, question("nx.unregistered.net"), i);
    EXPECT_EQ(outcome.rcode, RCode::NXDomain);
    EXPECT_FALSE(outcome.cache_hit);
  }
  // Paper III-C1: resolvers ignoring RFC 2308 re-ask upstream every time.
  EXPECT_EQ(cluster.above_answers(), 5u);
}

TEST(ClusterTest, NegativeCacheReducesAboveTraffic) {
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 1;
  config.cache.negative_cache = true;
  config.cache.negative_ttl = 100;
  RdnsCluster cluster(config, authority);
  for (int i = 0; i < 5; ++i) {
    cluster.query_view(1, question("nx.unregistered.net"), i);
  }
  EXPECT_EQ(cluster.above_answers(), 1u);
}

TEST(ClusterTest, TapObserverSeesBothDirections) {
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 1;
  RdnsCluster cluster(config, authority);

  std::vector<std::string> below_names;
  std::vector<std::string> above_names;
  FunctionTapObserver observer([&](const TapBatch& batch) {
    for (const TapEvent& event : batch) {
      if (event.direction == TapDirection::kBelow) {
        below_names.emplace_back(batch.qname(event));
        EXPECT_EQ(event.client_id, 1u);
        EXPECT_FALSE(batch.answers(event).empty());
      } else {
        above_names.emplace_back(batch.qname(event));
      }
    }
  });
  cluster.add_tap_observer(&observer);
  EXPECT_EQ(cluster.tap_observer_count(), 1u);

  cluster.query_view(1, question("a.example.com"), 0);   // miss
  cluster.query_view(1, question("a.example.com"), 1);   // hit
  cluster.flush_taps();
  ASSERT_EQ(below_names.size(), 2u);
  ASSERT_EQ(above_names.size(), 1u);
  EXPECT_EQ(above_names[0], "a.example.com");
  cluster.remove_tap_observer(&observer);
  EXPECT_EQ(cluster.tap_observer_count(), 0u);
}

TEST(ClusterTest, TapBatchesFlushAtBatchSizeAndPreserveOrder) {
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 1;
  RdnsCluster cluster(config, authority);

  std::vector<std::size_t> batches;
  std::vector<TapDirection> directions;
  std::vector<SimTime> times;
  FunctionTapObserver observer([&](const TapBatch& batch) {
    batches.push_back(batch.size());
    for (const TapEvent& event : batch) {
      directions.push_back(event.direction);
      times.push_back(event.ts);
    }
  });
  cluster.add_tap_observer(&observer);

  // A miss at ts 0 emits (above, below); each hit at ts 1..256 emits one
  // below: 258 events.  The first batch is delivered mid-stream, by the
  // query that buffers its 256th event, and flush_taps drains the rest.
  static_assert(TapBuffer::kBatchSize == 256);
  cluster.query_view(1, question("a.example.com"), 0);
  for (SimTime ts = 1; ts <= 256; ++ts) {
    cluster.query_view(1, question("a.example.com"), ts);
    const std::vector<std::size_t> expected =
        ts < 254 ? std::vector<std::size_t>{} : std::vector<std::size_t>{256};
    ASSERT_EQ(batches, expected) << "after the hit at ts " << ts;
  }
  cluster.flush_taps();
  EXPECT_EQ(batches, (std::vector<std::size_t>{256, 2}));
  ASSERT_EQ(directions.size(), 258u);
  EXPECT_EQ(directions[0], TapDirection::kAbove);
  EXPECT_EQ(times[0], 0);
  for (std::size_t i = 1; i < directions.size(); ++i) {
    EXPECT_EQ(directions[i], TapDirection::kBelow) << i;
    EXPECT_EQ(times[i], static_cast<SimTime>(i - 1)) << i;
  }
}

TEST(ClusterTest, RemovingObserverFlushesPendingEvents) {
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 1;
  RdnsCluster cluster(config, authority);
  std::size_t events = 0;
  FunctionTapObserver observer(
      [&events](const TapBatch& batch) { events += batch.size(); });
  cluster.add_tap_observer(&observer);
  cluster.query_view(1, question("a.example.com"), 0);
  cluster.remove_tap_observer(&observer);
  EXPECT_EQ(events, 2u);  // above + below, delivered by the removal flush
}

TEST(ClusterTest, NullOrDuplicateObserverIsRejected) {
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 1;
  RdnsCluster cluster(config, authority);
  EXPECT_THROW(cluster.add_tap_observer(nullptr), std::invalid_argument);
  FunctionTapObserver observer([](const TapBatch&) {});
  cluster.add_tap_observer(&observer);
  cluster.add_tap_observer(&observer);  // deduplicated, not double-delivered
  EXPECT_EQ(cluster.tap_observer_count(), 1u);
}

TEST(ClusterTest, DnssecCountersTrackSignedMisses) {
  SyntheticAuthority authority;
  authority.register_zone(
      DomainName("signed.com"),
      SyntheticAuthority::make_flat_a_zone(300, /*dnssec_signed=*/true));
  authority.register_zone(DomainName("plain.com"),
                          SyntheticAuthority::make_flat_a_zone(300));
  ClusterConfig config;
  config.server_count = 1;
  RdnsCluster cluster(config, authority);
  cluster.query_view(1, question("a.signed.com"), 0);  // signed miss
  cluster.query_view(1, question("a.signed.com"), 1);  // hit: no validation
  cluster.query_view(1, question("a.plain.com"), 2);   // unsigned miss
  EXPECT_EQ(cluster.dnssec_validations(), 1u);
  EXPECT_EQ(cluster.dnssec_disposable_validations(), 0u);
}

TEST(ClusterTest, AggregateStats) {
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 2;
  RdnsCluster cluster(config, authority);
  const std::uint64_t first = client_on(0, 2);
  const std::uint64_t second = client_on(1, 2);
  cluster.query_view(first, question("a.example.com"), 0);
  // The other server misses, then the first one hits.
  cluster.query_view(second, question("a.example.com"), 1);
  cluster.query_view(first, question("a.example.com"), 2);
  const DnsCacheStats stats = cluster.aggregate_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 2u);
}

TEST(ClusterTest, InvalidConfigThrows) {
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 0;
  EXPECT_THROW(RdnsCluster(config, authority), std::invalid_argument);
}

TEST(ClusterTest, TtlExpiryForcesRefetch) {
  const SyntheticAuthority authority = make_authority();
  ClusterConfig config;
  config.server_count = 1;
  RdnsCluster cluster(config, authority);
  cluster.query_view(1, question("w.example.com"), 0);
  cluster.query_view(1, question("w.example.com"), 299);  // hit (TTL 300)
  cluster.query_view(1, question("w.example.com"), 300);  // expired: miss
  EXPECT_EQ(cluster.above_answers(), 2u);
}

}  // namespace
}  // namespace dnsnoise
