#include "dns/ip.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace dnsnoise {
namespace {

TEST(Ipv4Test, ParseAndFormat) {
  const auto ip = parse_ipv4("192.0.2.1");
  ASSERT_TRUE(ip);
  EXPECT_EQ(format_ipv4(*ip), "192.0.2.1");
  EXPECT_EQ(ip->octets()[0], 192);
  EXPECT_EQ(ip->octets()[3], 1);
}

TEST(Ipv4Test, Extremes) {
  EXPECT_EQ(format_ipv4(*parse_ipv4("0.0.0.0")), "0.0.0.0");
  EXPECT_EQ(format_ipv4(*parse_ipv4("255.255.255.255")), "255.255.255.255");
}

TEST(Ipv4Test, FromOctets) {
  const Ipv4 ip = Ipv4::from_octets(10, 20, 30, 40);
  EXPECT_EQ(format_ipv4(ip), "10.20.30.40");
  EXPECT_EQ(ip.value, 0x0a141e28u);
}

class BadIpv4Test : public ::testing::TestWithParam<const char*> {};

TEST_P(BadIpv4Test, ParseRejects) {
  EXPECT_FALSE(parse_ipv4(GetParam())) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Malformed, BadIpv4Test,
                         ::testing::Values("", "1.2.3", "1.2.3.4.5",
                                           "256.1.1.1", "1.2.3.", ".1.2.3",
                                           "a.b.c.d", "1..2.3", "01234.1.1.1",
                                           "1.2.3.4 "));

TEST(Ipv6Test, ParseFullForm) {
  const auto ip = parse_ipv6("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(ip);
  EXPECT_EQ(format_ipv6(*ip), "2001:db8::1");
}

TEST(Ipv6Test, ParseCompressed) {
  const auto ip = parse_ipv6("2001:db8::1");
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->bytes[0], 0x20);
  EXPECT_EQ(ip->bytes[1], 0x01);
  EXPECT_EQ(ip->bytes[15], 0x01);
}

TEST(Ipv6Test, AllZeros) {
  const auto ip = parse_ipv6("::");
  ASSERT_TRUE(ip);
  for (const auto b : ip->bytes) EXPECT_EQ(b, 0);
  EXPECT_EQ(format_ipv6(*ip), "::");
}

TEST(Ipv6Test, LeadingAndTrailingGap) {
  EXPECT_TRUE(parse_ipv6("::1"));
  EXPECT_TRUE(parse_ipv6("fe80::"));
  EXPECT_EQ(format_ipv6(*parse_ipv6("::1")), "::1");
  EXPECT_EQ(format_ipv6(*parse_ipv6("fe80::")), "fe80::");
}

class BadIpv6Test : public ::testing::TestWithParam<const char*> {};

TEST_P(BadIpv6Test, ParseRejects) {
  EXPECT_FALSE(parse_ipv6(GetParam())) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Malformed, BadIpv6Test,
                         ::testing::Values("", ":::", "1:2:3:4:5:6:7",
                                           "1:2:3:4:5:6:7:8:9", "g::1",
                                           "1::2::3", "12345::1",
                                           "1:2:3:4:5:6:7:8:"));

class Ipv6RoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Ipv6RoundTripTest, FormatParseIsIdentity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    Ipv6 ip;
    for (auto& b : ip.bytes) b = static_cast<std::uint8_t>(rng.below(256));
    // Occasionally zero a run to exercise '::' compression.
    if (rng.chance(0.5)) {
      const std::size_t start = rng.below(12);
      const std::size_t len = 2 + rng.below(8);
      for (std::size_t i = start; i < std::min<std::size_t>(start + len, 16);
           ++i) {
        ip.bytes[i] = 0;
      }
    }
    const std::string text = format_ipv6(ip);
    const auto parsed = parse_ipv6(text);
    ASSERT_TRUE(parsed) << text;
    EXPECT_EQ(*parsed, ip) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ipv6RoundTripTest,
                         ::testing::Values(1, 7, 42, 1234));

}  // namespace
}  // namespace dnsnoise
