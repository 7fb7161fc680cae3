#include "resolver/authority.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "dns/ip.h"

namespace dnsnoise {
namespace {

Question question(const char* name, RRType type = RRType::A) {
  return {DomainName(name), type};
}

TEST(AuthorityTest, UnregisteredIsNxdomain) {
  const SyntheticAuthority authority;
  const auto answer = authority.resolve(question("nobody.example.com"), 0);
  EXPECT_EQ(answer.rcode, RCode::NXDomain);
  EXPECT_TRUE(answer.answers.empty());
}

TEST(AuthorityTest, FlatZoneAnswersEverythingUnderApex) {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(300));
  const auto a1 = authority.resolve(question("www.example.com"), 0);
  const auto a2 = authority.resolve(question("deep.sub.example.com"), 0);
  const auto apex = authority.resolve(question("example.com"), 0);
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
  const auto a1 = authority.resolve(question("x.example.com"), 0);
  const auto a2 = authority.resolve(question("x.example.com"), 12345);
  EXPECT_EQ(a1.answers[0].rdata, a2.answers[0].rdata);
  const auto other = authority.resolve(question("y.example.com"), 0);
  EXPECT_NE(a1.answers[0].rdata, other.answers[0].rdata);
}

TEST(AuthorityTest, AaaaAnswers) {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(60));
  const auto answer =
      authority.resolve(question("v6.example.com", RRType::AAAA), 0);
  ASSERT_EQ(answer.answers.size(), 1u);
  EXPECT_EQ(answer.answers[0].type, RRType::AAAA);
  EXPECT_TRUE(parse_ipv6(answer.answers[0].rdata));
}

TEST(AuthorityTest, LongestSuffixWins) {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("com"), [](const Question&, SimTime) {
    AuthorityAnswer answer;  // NXDOMAIN for the whole TLD
    return answer;
  });
  authority.register_zone(DomainName("example.com"),
                          SyntheticAuthority::make_flat_a_zone(60));
  EXPECT_EQ(authority.resolve(question("www.example.com"), 0).rcode,
            RCode::NoError);
  EXPECT_EQ(authority.resolve(question("www.other.com"), 0).rcode,
            RCode::NXDomain);
}

TEST(AuthorityTest, ReRegistrationReplacesHandler) {
  SyntheticAuthority authority;
  authority.register_zone(DomainName("z.com"),
                          SyntheticAuthority::make_flat_a_zone(1));
  authority.register_zone(DomainName("z.com"),
                          SyntheticAuthority::make_flat_a_zone(999));
  EXPECT_EQ(authority.zone_count(), 1u);
  EXPECT_EQ(authority.resolve(question("a.z.com"), 0).answers[0].ttl, 999u);
}

TEST(AuthorityTest, DnssecFlagPropagates) {
  SyntheticAuthority authority;
  authority.register_zone(
      DomainName("signed.com"),
      SyntheticAuthority::make_flat_a_zone(60, /*dnssec_signed=*/true));
  EXPECT_TRUE(authority.resolve(question("a.signed.com"), 0).dnssec_signed);
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
  const std::string expected = authority.resolve(hit, 0).answers[0].rdata;
  auto resolve_many = [&] {
    for (int i = 0; i < 2000; ++i) {
      const AuthorityAnswer a = authority.resolve(hit, i);
      EXPECT_EQ(a.rcode, RCode::NoError);
      ASSERT_EQ(a.answers.size(), 1u);
      EXPECT_EQ(a.answers[0].rdata, expected);
      EXPECT_EQ(authority.resolve(miss, i).rcode, RCode::NXDomain);
    }
  };
  std::thread other(resolve_many);
  resolve_many();
  other.join();
}

}  // namespace
}  // namespace dnsnoise
