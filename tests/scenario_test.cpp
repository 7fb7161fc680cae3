#include "workload/scenario.h"

#include <gtest/gtest.h>

#include <map>

namespace dnsnoise {
namespace {

TEST(ScenarioDateTest, NamesAndOffsets) {
  EXPECT_EQ(scenario_date_name(ScenarioDate::kFeb01), "02/01/2011");
  EXPECT_EQ(scenario_date_name(ScenarioDate::kDec30), "12/30/2011");
  EXPECT_EQ(scenario_day_index(ScenarioDate::kFeb01), 0);
  EXPECT_EQ(scenario_day_index(ScenarioDate::kSep02), 213);
  EXPECT_EQ(scenario_day_index(ScenarioDate::kDec30), 332);
  EXPECT_DOUBLE_EQ(scenario_progress(ScenarioDate::kFeb01), 0.0);
  EXPECT_DOUBLE_EQ(scenario_progress(ScenarioDate::kDec30), 1.0);
  double last = -1.0;
  for (const ScenarioDate date : kAllScenarioDates) {
    EXPECT_GT(scenario_progress(date), last);
    last = scenario_progress(date);
  }
}

TEST(ScenarioTtlTest, FebruarySkewsLowDecemberSkews300) {
  Rng rng(1);
  std::map<std::uint32_t, int> feb;
  std::map<std::uint32_t, int> dec;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    ++feb[sample_disposable_ttl(rng, 0.0)];
    ++dec[sample_disposable_ttl(rng, 1.0)];
  }
  // February's policy mix skews to tiny TTLs (the paper measures 28% of
  // disposable *domains* at TTL=1s once zone volume weighting applies);
  // December's mode is 300s.
  EXPECT_NEAR(static_cast<double>(feb[1]) / kSamples, 0.45, 0.02);
  EXPECT_NEAR(static_cast<double>(feb[0]) / kSamples, 0.008, 0.004);
  EXPECT_GT(dec[300], dec[1] * 5);
  EXPECT_GT(static_cast<double>(dec[300]) / kSamples, 0.45);
}

TEST(ScenarioTest, ConstructsAllDates) {
  ScenarioScale scale;
  scale.queries_per_day = 1000;
  scale.population_scale = 0.05;
  for (const ScenarioDate date : kAllScenarioDates) {
    const Scenario scenario(date, scale);
    EXPECT_GT(scenario.truth().disposable_zones.size(), 5u);
    EXPECT_GT(scenario.authority().zone_count(), 10u);
    EXPECT_FALSE(scenario.popular_apexes().empty());
  }
}

TEST(ScenarioTest, ZonePopulationGrowsOverTheYear) {
  ScenarioScale scale;
  scale.population_scale = 0.2;
  const Scenario feb(ScenarioDate::kFeb01, scale);
  const Scenario dec(ScenarioDate::kDec30, scale);
  EXPECT_GT(dec.truth().disposable_zones.size(),
            feb.truth().disposable_zones.size());
  // Earlier zones persist: February's apexes are a subset of December's.
  for (const auto& info : feb.truth().disposable_zones) {
    EXPECT_TRUE(dec.truth().disposable_apexes.contains(info.apex))
        << info.apex;
  }
}

TEST(ScenarioTest, GroundTruthPredicate) {
  ScenarioScale scale;
  scale.population_scale = 0.1;
  const Scenario scenario(ScenarioDate::kDec30, scale);
  const GroundTruth& truth = scenario.truth();
  ASSERT_FALSE(truth.disposable_zones.empty());
  const auto& zone = truth.disposable_zones.front();
  EXPECT_TRUE(truth.is_disposable_name(
      DomainName("some.generated.name." + zone.apex).nld(zone.name_depth)));
  EXPECT_TRUE(truth.is_disposable_name(DomainName("x." + zone.apex)));
  EXPECT_FALSE(truth.is_disposable_name(DomainName("www.google.com")));
  EXPECT_FALSE(truth.is_disposable_name(DomainName("e1.g.akamai.net")));
}

TEST(ScenarioTest, TenantAttribution) {
  EXPECT_TRUE(Scenario::is_google_name("mail.google.com"));
  EXPECT_TRUE(
      Scenario::is_google_name("p2.abc.def.123.i1.ds.ipv6-exp.l.google.com"));
  EXPECT_FALSE(Scenario::is_google_name("google.com.evil.org"));
  EXPECT_TRUE(Scenario::is_akamai_name("e1.g.akamai.net"));
  EXPECT_TRUE(Scenario::is_akamai_name("x.edgesuite.net"));
  EXPECT_FALSE(Scenario::is_akamai_name("akamai.evil.org"));
}

TEST(ScenarioTest, DisposableMultiplierZeroRemovesDisposableTenants) {
  ScenarioScale scale;
  scale.queries_per_day = 1000;
  scale.population_scale = 0.05;
  scale.disposable_traffic_multiplier = 0.0;
  const Scenario scenario(ScenarioDate::kDec30, scale);
  EXPECT_TRUE(scenario.truth().disposable_zones.empty());
}

TEST(ScenarioTest, TrafficStreamVariesQueriesOnly) {
  ScenarioScale a;
  a.queries_per_day = 2000;
  a.population_scale = 0.05;
  ScenarioScale b = a;
  b.traffic_stream = 1;
  Scenario sa(ScenarioDate::kFeb01, a);
  Scenario sb(ScenarioDate::kFeb01, b);
  // Same zone population...
  ASSERT_EQ(sa.truth().disposable_zones.size(),
            sb.truth().disposable_zones.size());
  EXPECT_EQ(sa.truth().disposable_zones.front().apex,
            sb.truth().disposable_zones.front().apex);
  // ...but different query streams.
  std::vector<std::string> qa;
  std::vector<std::string> qb;
  sa.traffic().run_day_shard(
      0, {},
      [&qa](SimTime, std::uint64_t, const QuerySpec& q) {
        qa.push_back(q.qname);
      });
  sb.traffic().run_day_shard(
      0, {},
      [&qb](SimTime, std::uint64_t, const QuerySpec& q) {
        qb.push_back(q.qname);
      });
  EXPECT_NE(qa, qb);
}

TEST(ScenarioTest, TrafficForSharesThePopulation) {
  // Another stream over a built scenario's tenants is the stream a
  // scenario built for that scale would draw.
  ScenarioScale scale;
  scale.queries_per_day = 3000;
  scale.population_scale = 0.05;
  ScenarioScale stream = scale;
  stream.queries_per_day = 1500;
  stream.traffic_stream = 9;
  const Scenario scenario(ScenarioDate::kNov14, scale);
  const Scenario fresh(ScenarioDate::kNov14, stream);
  const TrafficGenerator shared = scenario.traffic_for(stream);
  ASSERT_EQ(shared.model_count(), fresh.traffic().model_count());
  EXPECT_EQ(&shared.model(0), &scenario.traffic().model(0));
  const auto record = [](const TrafficGenerator& traffic) {
    std::vector<std::string> out;
    traffic.run_day_shard(5, {2, 1},
                          [&out](SimTime ts, std::uint64_t client,
                                 const QuerySpec& q) {
                            out.push_back(std::to_string(ts) + " " +
                                          std::to_string(client) + " " +
                                          q.qname);
                          });
    return out;
  };
  const std::vector<std::string> expected = record(fresh.traffic());
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(record(shared), expected);
}

TEST(ScenarioTest, SampleDayHasPaperLikeMix) {
  // Light end-to-end sanity: on a small day, disposable names are a
  // nontrivial minority of queried names and NXDOMAINs exist.
  ScenarioScale scale;
  scale.queries_per_day = 20'000;
  scale.client_count = 500;
  scale.population_scale = 0.2;
  Scenario scenario(ScenarioDate::kDec30, scale);
  std::size_t total = 0;
  std::size_t disposable = 0;
  scenario.traffic().run_day_shard(
      0, {}, [&](SimTime, std::uint64_t, const QuerySpec& q) {
        ++total;
        const auto name = DomainName::parse(q.qname);
        ASSERT_TRUE(name) << q.qname;
        if (scenario.truth().is_disposable_name(*name)) ++disposable;
      });
  const double share = static_cast<double>(disposable) /
                       static_cast<double>(total);
  EXPECT_GT(share, 0.02);
  EXPECT_LT(share, 0.25);
}

}  // namespace
}  // namespace dnsnoise
