// End-to-end integration: simulate a small ISP day, materialize the tap as
// real pcap bytes, parse them back through the capture stack, and verify
// the reconstructed view matches the directly-observed one.  This closes
// the loop cluster -> PcapTapWriter -> CaptureDecoder -> DayCapture.
#include <gtest/gtest.h>

#include "analytics/measurements.h"
#include "engine/parallel_miner.h"
#include "netio/capture.h"

namespace dnsnoise {
namespace {

const Ipv4 kResolverIp = Ipv4::from_octets(10, 0, 0, 53);

TEST(IntegrationTest, PcapRoundTripMatchesDirectCapture) {
  ScenarioScale scale;
  scale.queries_per_day = 4'000;
  scale.client_count = 200;
  scale.population_scale = 0.1;
  Scenario scenario(ScenarioDate::kNov14, scale);

  ClusterConfig cluster_config;
  cluster_config.server_count = 2;
  RdnsCluster cluster(cluster_config, scenario.authority());

  // Direct capture + pcap materialization side by side, both fed from the
  // same batched tap stream.
  DayCapture direct;
  direct.attach(cluster);
  PcapWriter pcap;
  PcapTapWriter pcap_writer(pcap, kResolverIp);
  cluster.add_tap_observer(&pcap_writer);

  scenario.traffic().run_day_shard(
      0, {},
      [&cluster](SimTime ts, std::uint64_t client, const QuerySpec& query) {
        cluster.query_view(client, {DomainName(query.qname), query.qtype}, ts);
      });
  cluster.remove_tap_observer(&pcap_writer);
  direct.detach(cluster);

  // Replay the pcap through the capture pipeline into a second DayCapture.
  CaptureDecoder decoder({kResolverIp});
  DayCapture replayed;
  decoder.add_tap_observer(&replayed);
  const std::size_t events = decoder.decode_pcap(pcap.bytes());

  EXPECT_EQ(events, pcap.packet_count());
  EXPECT_EQ(decoder.dropped(), 0u);

  // The reconstructed view must match the direct one exactly.
  EXPECT_EQ(replayed.unique_queried(), direct.unique_queried());
  EXPECT_EQ(replayed.unique_resolved(), direct.unique_resolved());
  EXPECT_EQ(replayed.chr().unique_rrs(), direct.chr().unique_rrs());
  EXPECT_EQ(replayed.tree().black_count(), direct.tree().black_count());
  EXPECT_EQ(replayed.below_series().sum_total(),
            direct.below_series().sum_total());
  EXPECT_EQ(replayed.below_series().sum_nxdomain(),
            direct.below_series().sum_nxdomain());
  EXPECT_EQ(replayed.above_series().sum_total(),
            direct.above_series().sum_total());

  // Per-RR counts agree, not just totals.
  for (const auto& [rr, counts] : direct.chr().entries()) {
    const RRKey key = to_rr_key(rr, direct.names());
    const auto* other = replayed.chr().find(key);
    ASSERT_NE(other, nullptr) << key.name;
    EXPECT_EQ(other->below, counts.below) << key.name;
    EXPECT_EQ(other->above, counts.above) << key.name;
  }
}

TEST(IntegrationTest, CachingShapesAreVisibleInSmallRun) {
  // Order-of-magnitude check from Fig. 2: caching keeps the above stream a
  // small fraction of the below stream.
  ScenarioScale scale;
  scale.queries_per_day = 120'000;
  scale.client_count = 4'000;
  scale.population_scale = 0.3;
  DayCapture capture;
  ASSERT_TRUE(
      MiningSession(scale).simulate(ScenarioDate::kDec30, capture).ok());

  // Caching shrinks the above stream.  The magnitude is scale-limited (the
  // paper's 10x gap needs ISP volumes; see EXPERIMENTS.md), but the
  // direction and the NXDOMAIN asymmetry must hold at any scale.
  const double below = static_cast<double>(capture.below_series().sum_total());
  const double above = static_cast<double>(capture.above_series().sum_total());
  EXPECT_LT(above, below * 0.85);
  EXPECT_GT(above, below * 0.02);

  // NXDOMAIN responses always re-ask upstream (negative cache off), so the
  // above stream is relatively NX-richer than the below stream.
  const double nx_below =
      static_cast<double>(capture.below_series().sum_nxdomain()) / below;
  const double nx_above =
      static_cast<double>(capture.above_series().sum_nxdomain()) / above;
  EXPECT_LT(nx_below, 0.15);
  EXPECT_GT(nx_above, nx_below);

  // Long-tail shape (Fig. 3): most RRs see few lookups.
  EXPECT_GT(lookup_tail_fraction(capture.chr(), 10), 0.75);
}

}  // namespace
}  // namespace dnsnoise
