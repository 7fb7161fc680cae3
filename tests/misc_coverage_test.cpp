// Cross-cutting coverage: randomized wire-codec round trips, fpDNS file
// persistence, diurnal/sim-time helpers, message factories, and the less
// traveled configuration corners of resolver and pdns.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "dns/ip.h"
#include "dns/wire.h"
#include "pdns/fpdns.h"
#include "pdns/pdns_db.h"
#include "resolver/cluster.h"
#include "util/rng.h"
#include "workload/diurnal.h"

namespace dnsnoise {
namespace {

// --------------------------------------------------------------------------
// Randomized wire-codec round trips.

DomainName random_name(Rng& rng) {
  std::string text;
  const std::size_t labels = 1 + rng.below(8);
  for (std::size_t i = 0; i < labels; ++i) {
    if (i > 0) text.push_back('.');
    text += rng.string_over("abcdefghijklmnopqrstuvwxyz0123456789-",
                            1 + rng.below(20));
  }
  // Avoid labels that start/end oddly only in the sense our parser rejects
  // (it accepts hyphens anywhere), so any generated text is valid.
  return DomainName(text);
}

ResourceRecord random_rr(Rng& rng) {
  ResourceRecord rr;
  rr.name = random_name(rng);
  rr.ttl = static_cast<std::uint32_t>(rng.below(86401));
  switch (rng.below(4)) {
    case 0:
      rr.type = RRType::A;
      rr.rdata = format_ipv4(Ipv4{static_cast<std::uint32_t>(rng())});
      break;
    case 1: {
      rr.type = RRType::AAAA;
      Ipv6 ip;
      for (auto& b : ip.bytes) b = static_cast<std::uint8_t>(rng.below(256));
      rr.rdata = format_ipv6(ip);
      break;
    }
    case 2:
      rr.type = RRType::CNAME;
      rr.rdata = random_name(rng).text();
      break;
    default:
      rr.type = RRType::TXT;
      rr.rdata = rng.string_over("abcdefgh ", rng.below(300));
      break;
  }
  return rr;
}

class WireRandomRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(WireRandomRoundTripTest, EncodeDecodeIsIdentity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 150; ++trial) {
    DnsMessage msg = DnsMessage::make_query(
        static_cast<std::uint16_t>(rng.below(65536)), random_name(rng),
        rng.chance(0.5) ? RRType::A : RRType::AAAA);
    msg.header.qr = true;
    msg.header.ra = true;
    msg.header.rcode = rng.chance(0.2) ? RCode::NXDomain : RCode::NoError;
    const std::size_t answers = rng.below(5);
    for (std::size_t i = 0; i < answers; ++i) {
      msg.answers.push_back(random_rr(rng));
    }
    const auto decoded = decode_message(encode_message(msg));
    ASSERT_TRUE(decoded);
    EXPECT_EQ(*decoded, msg);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRandomRoundTripTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// --------------------------------------------------------------------------
// fpDNS file persistence.

TEST(FpDnsFileTest, SaveLoadRoundTrip) {
  FpDnsDataset dataset;
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    FpDnsEntry entry;
    entry.ts = static_cast<SimTime>(rng.below(86400));
    entry.client_id = rng();
    entry.direction =
        rng.chance(0.5) ? FpDirection::kBelow : FpDirection::kAbove;
    entry.rcode = rng.chance(0.1) ? RCode::NXDomain : RCode::NoError;
    entry.qname = random_name(rng).text();
    entry.qtype = RRType::A;
    entry.ttl = static_cast<std::uint32_t>(rng.below(86401));
    entry.rdata = entry.rcode == RCode::NoError ? "192.0.2.1" : "";
    dataset.add(std::move(entry));
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnsnoise_fpdns_test.bin")
          .string();
  dataset.save(path);
  const FpDnsDataset loaded = FpDnsDataset::load(path);
  ASSERT_EQ(loaded.size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(loaded.entries()[i], dataset.entries()[i]);
  }
  std::remove(path.c_str());
}

TEST(FpDnsFileTest, LoadMissingFileThrows) {
  EXPECT_THROW(FpDnsDataset::load("/no/such/fpdns.bin"), std::runtime_error);
}

// --------------------------------------------------------------------------
// Diurnal profile and simulated time.

TEST(DiurnalTest, FractionsSumToOne) {
  const DiurnalProfile profile;
  double total = 0.0;
  for (int hour = 0; hour < 24; ++hour) total += profile.fraction(hour);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(DiurnalTest, DefaultShapeHasEveningPeakAndNightTrough) {
  const DiurnalProfile profile;
  EXPECT_GT(profile.weight(20), profile.weight(4) * 3);
  EXPECT_GT(profile.weight(12), profile.weight(3));
}

TEST(DiurnalTest, FlatProfile) {
  constexpr DiurnalProfile flat = DiurnalProfile::flat();
  for (int hour = 0; hour < 24; ++hour) {
    EXPECT_DOUBLE_EQ(flat.fraction(hour), 1.0 / 24.0);
  }
}

TEST(SimTimeTest, Helpers) {
  EXPECT_EQ(day_of(0), 0);
  EXPECT_EQ(day_of(86399), 0);
  EXPECT_EQ(day_of(86400), 1);
  EXPECT_EQ(second_of_day(86401), 1);
  EXPECT_EQ(hour_of_day(3 * kSecondsPerDay + 7 * kSecondsPerHour + 59), 7);
}

// --------------------------------------------------------------------------
// Message factories.

TEST(MessageFactoryTest, QueryShape) {
  const DnsMessage query =
      DnsMessage::make_query(42, DomainName("a.example.com"), RRType::AAAA);
  EXPECT_EQ(query.header.id, 42);
  EXPECT_FALSE(query.header.qr);
  EXPECT_TRUE(query.header.rd);
  ASSERT_EQ(query.questions.size(), 1u);
  EXPECT_EQ(query.questions[0].type, RRType::AAAA);
  EXPECT_TRUE(query.answers.empty());
}

TEST(MessageFactoryTest, ResponseEchoesQuestion) {
  const DnsMessage query =
      DnsMessage::make_query(9, DomainName("x.example.org"), RRType::A);
  const DnsMessage response =
      DnsMessage::make_response(query, RCode::NXDomain, {});
  EXPECT_EQ(response.header.id, 9);
  EXPECT_TRUE(response.header.qr);
  EXPECT_TRUE(response.header.ra);
  EXPECT_EQ(response.header.rcode, RCode::NXDomain);
  EXPECT_EQ(response.questions, query.questions);
}

// --------------------------------------------------------------------------
// pDNS-DB: multiple depths under one zone, deep wildcard folding.

TEST(PdnsDbDepthTest, MultipleDepthRulesUnderOneZone) {
  PassiveDnsDb db(/*wildcard_folding=*/true);
  db.add_rule({"zone.example.com", 4});
  db.add_rule({"zone.example.com", 6});
  EXPECT_EQ(db.stored_name(DomainName("a.zone.example.com")),
            "*.zone.example.com");
  EXPECT_EQ(db.stored_name(DomainName("a.b.c.zone.example.com")),
            "*.zone.example.com");
  // Depth 5 has no rule: unfolded.
  EXPECT_EQ(db.stored_name(DomainName("a.b.zone.example.com")),
            "a.b.zone.example.com");
}

TEST(PdnsDbDepthTest, MostSpecificZoneWins) {
  PassiveDnsDb db(true);
  db.add_rule({"example.com", 4});
  db.add_rule({"sub.example.com", 4});
  // Both rules cover depth-4 names under sub.example.com; the walk starts
  // from the most specific enclosing zone.
  EXPECT_EQ(db.stored_name(DomainName("x.sub.example.com")),
            "*.sub.example.com");
  EXPECT_EQ(db.stored_name(DomainName("x.y.example.com")), "*.example.com");
}

// --------------------------------------------------------------------------
// Rng distribution sanity that other suites don't cover.

TEST(RngDistributionTest, ParetoMean) {
  Rng rng(5);
  const double xm = 1.0;
  const double alpha = 3.0;
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) sum += rng.pareto(xm, alpha);
  // E[X] = alpha * xm / (alpha - 1) = 1.5.
  EXPECT_NEAR(sum / kSamples, 1.5, 0.02);
}

}  // namespace
}  // namespace dnsnoise
