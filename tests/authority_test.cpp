#include "resolver/authority.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "dns/ip.h"
#include "resolve_helper.h"

namespace dnsnoise {
namespace {

Question question(const char* name, RRType type = RRType::A) {
  return {DomainName(name), type};
}

TEST(AuthorityTest, UnregisteredIsNxdomain) {
  const SyntheticAuthority authority;
  const auto answer = resolve(authority, question("nobody.example.com"), 0);
  EXPECT_EQ(answer.rcode, RCode::NXDomain);
  EXPECT_TRUE(answer.answers.empty());
}

TEST(AuthorityTest, FlatZoneAnswersEverythingUnderApex) {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(300));
  const auto a1 = resolve(authority, question("www.example.com"), 0);
  const auto a2 = resolve(authority, question("deep.sub.example.com"), 0);
  const auto apex = resolve(authority, question("example.com"), 0);
  EXPECT_EQ(a1.rcode, RCode::NoError);
  EXPECT_EQ(a2.rcode, RCode::NoError);
  EXPECT_EQ(apex.rcode, RCode::NoError);
  ASSERT_EQ(a1.answers.size(), 1u);
  EXPECT_EQ(a1.answers[0].ttl, 300u);
  EXPECT_EQ(a1.answers[0].type, RRType::A);
  EXPECT_TRUE(parse_ipv4(a1.answers[0].rdata));
}

TEST(AuthorityTest, AnswersAreDeterministic) {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(60));
  const auto a1 = resolve(authority, question("x.example.com"), 0);
  const auto a2 = resolve(authority, question("x.example.com"), 12345);
  EXPECT_EQ(a1.answers[0].rdata, a2.answers[0].rdata);
  const auto other = resolve(authority, question("y.example.com"), 0);
  EXPECT_NE(a1.answers[0].rdata, other.answers[0].rdata);
}

TEST(AuthorityTest, AaaaAnswers) {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(60));
  const auto answer =
      resolve(authority, question("v6.example.com", RRType::AAAA), 0);
  ASSERT_EQ(answer.answers.size(), 1u);
  EXPECT_EQ(answer.answers[0].type, RRType::AAAA);
  EXPECT_TRUE(parse_ipv6(answer.answers[0].rdata));
}

TEST(AuthorityTest, LongestSuffixWins) {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("com"),
                          [](const Question&, SimTime, AuthorityAnswer&) {
                            // Leaves the answer NXDOMAIN for the whole TLD.
                          });
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(60));
  EXPECT_EQ(resolve(authority, question("www.example.com"), 0).rcode,
            RCode::NoError);
  EXPECT_EQ(resolve(authority, question("www.other.com"), 0).rcode,
            RCode::NXDomain);
}

TEST(AuthorityTest, LongestApexWinsForNamesDeeperThanAnyApex) {
  // resolve() probes only suffixes as long as the longest apex; a name far
  // deeper than every apex must still reach the most specific one, and an
  // apex registered after a resolve (longer than any before it) must be
  // probed from then on.
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(60));
  authority.register_zone(DomainName("l.example.com"),
                          SyntheticAuthority::make_flat_a_zone(120));
  const Question deep = question("a.b.c.d.e.f.g.h.x.l.example.com");
  EXPECT_EQ(resolve(authority, deep).answers.at(0).ttl, 120u);
  EXPECT_EQ(resolve(authority, question("a.b.c.d.e.f.g.h.x.example.com"))
                .answers.at(0)
                .ttl,
            60u);

  authority.register_zone(DomainName("f.g.h.x.l.example.com"),
                          SyntheticAuthority::make_flat_a_zone(240));
  EXPECT_EQ(resolve(authority, deep).answers.at(0).ttl, 240u);
  EXPECT_EQ(resolve(authority, question("f.g.h.x.l.example.com"))
                .answers.at(0)
                .ttl,
            240u);
  EXPECT_EQ(resolve(authority, question("g.h.x.l.example.com"))
                .answers.at(0)
                .ttl,
            120u);
  EXPECT_EQ(resolve(authority, question("a.b.c.d.e.f.g.h.x.l.example.org"))
                .rcode,
            RCode::NXDomain);
}

TEST(AuthorityTest, ReRegistrationReplacesHandler) {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("z.com"),
                          SyntheticAuthority::make_flat_a_zone(1));
  authority.register_zone(DomainName("z.com"),
                          SyntheticAuthority::make_flat_a_zone(999));
  EXPECT_EQ(authority.zone_count(), 1u);
  EXPECT_EQ(resolve(authority, question("a.z.com"), 0).answers[0].ttl, 999u);
}

TEST(AuthorityTest, DnssecFlagPropagates) {
  SyntheticAuthority authority;
  authority.register_zone(
      DomainName("signed.com"),
      SyntheticAuthority::make_flat_a_zone(60, /*dnssec_signed=*/true));
  EXPECT_TRUE(resolve(authority, question("a.signed.com"), 0).dnssec_signed);
}

TEST(AuthorityTest, SyntheticRdataHelpers) {
  const std::string a = synthetic_a_rdata("some.name.com");
  EXPECT_TRUE(parse_ipv4(a));
  EXPECT_EQ(a, synthetic_a_rdata("some.name.com"));
  EXPECT_NE(a, synthetic_a_rdata("other.name.com"));
  // Addresses live inside the documentation-friendly 10.0.0.0/8.
  EXPECT_EQ(parse_ipv4(a)->octets()[0], 10);

  const std::string aaaa = synthetic_aaaa_rdata("some.name.com");
  const auto parsed = parse_ipv6(aaaa);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->bytes[0], 0x20);
  EXPECT_EQ(parsed->bytes[3], 0xb8);  // 2001:db8::/32
}

TEST(AuthorityTest, SharedAuthorityResolvesConcurrently) {
  // One const authority shared by every shard: resolve() must not write,
  // so TSan (ctest -L engine) sees no race between these two threads.
  SyntheticAuthority built;
  built.register_zone(DomainName("example.com"),
                      SyntheticAuthority::make_flat_a_zone(60));
  const SyntheticAuthority& authority = built;
  const Question hit = question("www.example.com");
  const Question miss = question("nobody.example.net");
  const std::string expected = resolve(authority, hit, 0).answers[0].rdata;
  auto resolve_many = [&] {
    for (int i = 0; i < 2000; ++i) {
      const ResolvedAnswer a = resolve(authority, hit, i);
      EXPECT_EQ(a.rcode, RCode::NoError);
      ASSERT_EQ(a.answers.size(), 1u);
      EXPECT_EQ(a.answers[0].rdata, expected);
      EXPECT_EQ(resolve(authority, miss, i).rcode, RCode::NXDomain);
    }
  };
  std::thread other(resolve_many);
  resolve_many();
  other.join();
}

}  // namespace
}  // namespace dnsnoise
