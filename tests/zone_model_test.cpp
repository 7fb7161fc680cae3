#include "workload/zone_model.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_set>

#include "resolve_helper.h"

namespace dnsnoise {
namespace {

DisposableZoneModel make_disposable(DisposableZoneConfig config) {
  NamePattern pattern;
  pattern.add(RandomStringLabel::hex(16));
  return DisposableZoneModel(std::move(config), std::move(pattern));
}

TEST(DisposableZoneTest, NamesFallUnderApexAndParse) {
  DisposableZoneConfig config;
  config.apex = "avqs.vendor.com";
  config.repeat_probability = 0.0;
  auto model = make_disposable(config);
  Rng rng(1);
  RecentNames recent;
  for (int i = 0; i < 200; ++i) {
    const QuerySpec query = model.sample_query(rng, recent);
    const auto name = DomainName::parse(query.qname);
    ASSERT_TRUE(name) << query.qname;
    EXPECT_TRUE(name->is_within("avqs.vendor.com"));
    EXPECT_EQ(name->label_count(), model.name_depth());
  }
  EXPECT_TRUE(model.disposable());
}

TEST(DisposableZoneTest, MostNamesAreOneTime) {
  DisposableZoneConfig config;
  config.apex = "x.vendor.net";
  config.repeat_probability = 0.0;
  auto model = make_disposable(config);
  Rng rng(2);
  RecentNames recent;
  std::set<std::string> names;
  for (int i = 0; i < 1000; ++i)
    names.insert(model.sample_query(rng, recent).qname);
  EXPECT_EQ(names.size(), 1000u);  // hex(16): collisions are negligible
}

TEST(DisposableZoneTest, RepeatProbabilityReusesRecentNames) {
  DisposableZoneConfig config;
  config.apex = "x.vendor.net";
  config.repeat_probability = 0.5;
  config.recent_window = 16;
  auto model = make_disposable(config);
  Rng rng(3);
  RecentNames recent;
  std::set<std::string> names;
  constexpr int kQueries = 2000;
  for (int i = 0; i < kQueries; ++i) {
    names.insert(model.sample_query(rng, recent).qname);
  }
  // Roughly half the queries are repeats.
  EXPECT_LT(names.size(), kQueries * 6 / 10);
  EXPECT_GT(names.size(), kQueries * 4 / 10);
}

TEST(DisposableZoneTest, AuthorityAnswersAreDeterministicAndPooled) {
  DisposableZoneConfig config;
  config.apex = "avqs.vendor.com";
  config.rdata_pool = 4;
  auto model = make_disposable(config);
  SyntheticAuthority authority;
  model.install(authority);

  Rng rng(4);

  RecentNames recent;
  std::unordered_set<std::string> rdatas;
  for (int i = 0; i < 300; ++i) {
    const QuerySpec query = model.sample_query(rng, recent);
    const Question question{DomainName(query.qname), query.qtype};
    const auto a1 = resolve(authority, question, 0);
    const auto a2 = resolve(authority, question, 999);
    ASSERT_EQ(a1.answers.size(), 1u);
    EXPECT_EQ(a1.answers[0].rdata, a2.answers[0].rdata);  // deterministic
    EXPECT_TRUE(a1.disposable_zone);
    rdatas.insert(a1.answers[0].rdata);
  }
  // One-time names, but only rdata_pool distinct answers.
  EXPECT_LE(rdatas.size(), 4u);
}

TEST(DisposableZoneTest, RoundRobinAnswerSets) {
  DisposableZoneConfig config;
  config.apex = "exp.l.vendor.com";
  config.rdata_pool = 8;
  config.rr_per_answer = 4;
  auto model = make_disposable(config);
  SyntheticAuthority authority;
  model.install(authority);
  Rng rng(5);
  RecentNames recent;
  const QuerySpec query = model.sample_query(rng, recent);
  const auto answer =
      resolve(authority, {DomainName(query.qname), query.qtype}, 0);
  ASSERT_EQ(answer.answers.size(), 4u);
  std::set<std::string> distinct;
  for (const auto& rr : answer.answers) {
    EXPECT_EQ(rr.name.text(), query.qname);
    distinct.insert(rr.rdata);
  }
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(DisposableZoneTest, RrPerAnswerClampedToPool) {
  DisposableZoneConfig config;
  config.apex = "t.vendor.com";
  config.rdata_pool = 2;
  config.rr_per_answer = 10;
  auto model = make_disposable(config);
  SyntheticAuthority authority;
  model.install(authority);
  Rng rng(6);
  RecentNames recent;
  const QuerySpec query = model.sample_query(rng, recent);
  const auto answer =
      resolve(authority, {DomainName(query.qname), query.qtype}, 0);
  EXPECT_EQ(answer.answers.size(), 2u);
}

TEST(PopularZoneTest, FixedHostSetWithZipfPopularity) {
  PopularZoneConfig config;
  config.apex = "popular.com";
  config.hostnames = 10;
  config.aaaa_fraction = 0.0;
  PopularZoneModel model(config);
  EXPECT_FALSE(model.disposable());
  Rng rng(7);
  RecentNames recent;
  std::map<std::string, int> counts;
  for (int i = 0; i < 5000; ++i)
    ++counts[model.sample_query(rng, recent).qname];
  EXPECT_LE(counts.size(), 10u);
  // The bare apex is rank 0 and must dominate.
  EXPECT_GT(counts["popular.com"], counts["www.popular.com"]);
  for (const auto& [name, count] : counts) {
    EXPECT_TRUE(DomainName(name).is_within("popular.com")) << name;
  }
}

TEST(PopularZoneTest, AaaaFraction) {
  PopularZoneConfig config;
  config.apex = "popular.com";
  config.aaaa_fraction = 1.0;
  PopularZoneModel model(config);
  Rng rng(8);
  RecentNames recent;
  EXPECT_EQ(model.sample_query(rng, recent).qtype, RRType::AAAA);
}

TEST(CdnZoneTest, ShardNames) {
  CdnZoneConfig config;
  config.apex = "g.akamai.net";
  config.shards = 100;
  CdnZoneModel model(config);
  EXPECT_FALSE(model.disposable());
  Rng rng(9);
  RecentNames recent;
  for (int i = 0; i < 200; ++i) {
    const QuerySpec query = model.sample_query(rng, recent);
    const auto name = DomainName::parse(query.qname);
    ASSERT_TRUE(name);
    EXPECT_TRUE(name->is_within("g.akamai.net"));
    EXPECT_EQ(name->label(0).front(), 'e');
  }
}

TEST(OtherSitesTest, OwnSitesResolveOthersDoNot) {
  OtherSitesConfig config;
  config.sites = 500;
  OtherSitesModel model(config);
  SyntheticAuthority authority;
  model.install(authority);

  Rng rng(10);

  RecentNames recent;
  for (int i = 0; i < 100; ++i) {
    const QuerySpec query = model.sample_query(rng, recent);
    const auto answer =
        resolve(authority, {DomainName(query.qname), query.qtype}, 0);
    EXPECT_EQ(answer.rcode, RCode::NoError) << query.qname;
    EXPECT_FALSE(answer.disposable_zone);
  }
  // Junk under a covered TLD gets NXDOMAIN from the TLD handler.
  EXPECT_EQ(resolve(authority, {DomainName("n0such5ite.com"), RRType::A}, 0)
                .rcode,
            RCode::NXDomain);
}

TEST(OtherSitesTest, SiteDomainsAreStable) {
  OtherSitesConfig config;
  config.sites = 100;
  const OtherSitesModel a(config);
  const OtherSitesModel b(config);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.site_domain(i), b.site_domain(i));
  }
}

TEST(NxdomainTest, NamesNeverResolve) {
  NxdomainModel model(NxdomainConfig{});
  OtherSitesConfig sites_config;
  sites_config.sites = 1000;
  OtherSitesModel sites(sites_config);
  SyntheticAuthority authority;
  sites.install(authority);
  model.install(authority);  // no-op

  Rng rng(11);

  RecentNames recent;
  int resolved = 0;
  for (int i = 0; i < 500; ++i) {
    const QuerySpec query = model.sample_query(rng, recent);
    ASSERT_TRUE(DomainName::parse(query.qname)) << query.qname;
    if (resolve(authority, {DomainName(query.qname), query.qtype}, 0).rcode ==
        RCode::NoError) {
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, 0);
}

}  // namespace
}  // namespace dnsnoise
