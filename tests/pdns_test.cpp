#include <gtest/gtest.h>

#include "pdns/fpdns.h"
#include "pdns/pdns_db.h"
#include "pdns/rpdns.h"

namespace dnsnoise {
namespace {

// --------------------------------------------------------------------------
// fpDNS

TEST(FpDnsTest, AddResponseFlattensAnswerSection) {
  FpDnsDataset dataset;
  NameTable names;
  const std::vector<CompactRecord> answers = {
      compact_record(names, "x.example.com", RRType::CNAME, 60,
                     "e.l.example.com"),
      compact_record(names, "e.l.example.com", RRType::A, 60, "192.0.2.1"),
  };
  dataset.add_response(100, 77, FpDirection::kBelow, names,
                       names.intern("x.example.com"), RRType::A,
                       RCode::NoError, answers);
  ASSERT_EQ(dataset.size(), 2u);
  EXPECT_EQ(dataset.entries()[0].qname, "x.example.com");
  EXPECT_EQ(dataset.entries()[0].qtype, RRType::CNAME);
  EXPECT_EQ(dataset.entries()[0].rdata, "e.l.example.com");
  EXPECT_EQ(dataset.entries()[1].qname, "e.l.example.com");
  EXPECT_EQ(dataset.entries()[1].ttl, 60u);
  EXPECT_EQ(dataset.entries()[1].rdata, "192.0.2.1");
  EXPECT_EQ(dataset.entries()[0].client_id, 77u);
  EXPECT_TRUE(dataset.entries()[0].successful());
}

TEST(FpDnsTest, NxdomainBecomesSingleEntry) {
  FpDnsDataset dataset;
  NameTable names;
  dataset.add_response(5, 1, FpDirection::kBelow, names,
                       names.intern("nx.example.com"), RRType::A,
                       RCode::NXDomain, {});
  ASSERT_EQ(dataset.size(), 1u);
  EXPECT_EQ(dataset.entries()[0].qname, "nx.example.com");
  EXPECT_EQ(dataset.entries()[0].rcode, RCode::NXDomain);
  EXPECT_TRUE(dataset.entries()[0].rdata.empty());
  EXPECT_FALSE(dataset.entries()[0].successful());
}

TEST(FpDnsTest, SerializeRoundTrip) {
  FpDnsDataset dataset;
  NameTable names;
  const std::vector<CompactRecord> answers = {
      compact_record(names, "a.example.com", RRType::A, 30, "192.0.2.9")};
  dataset.add_response(1000, 42, FpDirection::kBelow, names,
                       names.intern("a.example.com"), RRType::A,
                       RCode::NoError, answers);
  dataset.add_response(1001, 0, FpDirection::kAbove, names,
                       names.intern("b.example.com"), RRType::AAAA,
                       RCode::NXDomain, {});

  const auto bytes = dataset.serialize();
  const FpDnsDataset loaded = FpDnsDataset::deserialize(bytes);
  ASSERT_EQ(loaded.size(), dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(loaded.entries()[i], dataset.entries()[i]) << i;
  }
}

TEST(FpDnsTest, DeserializeRejectsBadMagic) {
  std::vector<std::uint8_t> junk = {'X', 'X', 'X', 'X', 0, 0, 0, 0,
                                    0,   0,   0,   0};
  EXPECT_THROW(FpDnsDataset::deserialize(junk), std::invalid_argument);
}

TEST(FpDnsTest, DeserializeRejectsTruncation) {
  FpDnsDataset dataset;
  NameTable names;
  const std::vector<CompactRecord> answers = {
      compact_record(names, "a.example.com", RRType::A, 30, "192.0.2.9")};
  dataset.add_response(1, 2, FpDirection::kBelow, names,
                       names.intern("a.example.com"), RRType::A,
                       RCode::NoError, answers);
  auto bytes = dataset.serialize();
  bytes.resize(bytes.size() - 5);
  EXPECT_THROW(FpDnsDataset::deserialize(bytes), std::invalid_argument);
}

TEST(FpDnsTest, DeserializeRejectsCountBeyondInput) {
  // Magic plus an entry count no 12-byte input can hold: refused as short
  // input before the count sizes any allocation.
  for (const int shift : {40, 62}) {
    SCOPED_TRACE(shift);
    std::vector<std::uint8_t> bytes = {'F', 'P', 'D', '1'};
    const std::uint64_t count = std::uint64_t{1} << shift;
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(count >> (i * 8)));
    }
    EXPECT_THROW(FpDnsDataset::deserialize(bytes), std::invalid_argument);
  }
}

TEST(FpDnsTest, LoadDirectoryThrows) {
  EXPECT_THROW(FpDnsDataset::load(::testing::TempDir()), std::runtime_error);
}

// --------------------------------------------------------------------------
// rpDNS

TEST(RpDnsTest, DeduplicatesAcrossDays) {
  RpDnsDataset rpdns;
  const RRKey key{"x.example.com", RRType::A, "192.0.2.1"};
  EXPECT_TRUE(rpdns.add(key, 1));
  EXPECT_FALSE(rpdns.add(key, 1));
  EXPECT_FALSE(rpdns.add(key, 2));  // same RR later: not new
  EXPECT_EQ(rpdns.unique_records(), 1u);
  EXPECT_EQ(rpdns.first_seen(key), 1);
}

TEST(RpDnsTest, DifferentRdataIsDifferentRecord) {
  RpDnsDataset rpdns;
  EXPECT_TRUE(rpdns.add({"x.example.com", RRType::A, "192.0.2.1"}, 1));
  EXPECT_TRUE(rpdns.add({"x.example.com", RRType::A, "192.0.2.2"}, 1));
  EXPECT_TRUE(rpdns.add({"x.example.com", RRType::AAAA, "2001:db8::1"}, 1));
  EXPECT_EQ(rpdns.unique_records(), 3u);
}

TEST(RpDnsTest, NewPerDayCounters) {
  RpDnsDataset rpdns;
  rpdns.add({"a.com", RRType::A, "1"}, 1);
  rpdns.add({"b.com", RRType::A, "1"}, 1);
  rpdns.add({"c.com", RRType::A, "1"}, 2);
  rpdns.add({"a.com", RRType::A, "1"}, 2);  // duplicate
  EXPECT_EQ(rpdns.new_records_on(1), 2u);
  EXPECT_EQ(rpdns.new_records_on(2), 1u);
  EXPECT_EQ(rpdns.new_records_on(3), 0u);
  EXPECT_EQ(rpdns.days(), (std::vector<std::int64_t>{1, 2}));
}

TEST(RpDnsTest, FirstSeenMissing) {
  const RpDnsDataset rpdns;
  EXPECT_EQ(rpdns.first_seen({"none.com", RRType::A, "x"}), -1);
}

TEST(RpDnsTest, StorageBytesGrowOnlyOnNewRecords) {
  RpDnsDataset rpdns;
  rpdns.add({"a.example.com", RRType::A, "192.0.2.1"}, 1);
  const std::uint64_t after_one = rpdns.storage_bytes();
  EXPECT_GT(after_one, 0u);
  rpdns.add({"a.example.com", RRType::A, "192.0.2.1"}, 2);
  EXPECT_EQ(rpdns.storage_bytes(), after_one);
  rpdns.add({"b.example.com", RRType::A, "192.0.2.2"}, 2);
  EXPECT_GT(rpdns.storage_bytes(), after_one);
}

// --------------------------------------------------------------------------
// pDNS-DB with wildcard folding

TEST(PdnsDbTest, NoFoldingByDefault) {
  PassiveDnsDb db(/*wildcard_folding=*/false);
  db.add_rule({"dns.xx.fbcdn.net", 5});
  EXPECT_EQ(db.stored_name(DomainName("1022vr5.dns.xx.fbcdn.net")),
            "1022vr5.dns.xx.fbcdn.net");
}

TEST(PdnsDbTest, FoldsPaperExample) {
  PassiveDnsDb db(/*wildcard_folding=*/true);
  db.add_rule({"dns.xx.fbcdn.net", 5});
  // Paper §VI-C: 1022vr5.dns.xx.fbcdn.net -> *.dns.xx.fbcdn.net.
  EXPECT_EQ(db.stored_name(DomainName("1022vr5.dns.xx.fbcdn.net")),
            "*.dns.xx.fbcdn.net");
}

TEST(PdnsDbTest, DepthMustMatch) {
  PassiveDnsDb db(true);
  db.add_rule({"dns.xx.fbcdn.net", 5});
  // A 6-label name under the same zone is a different group: not folded.
  EXPECT_EQ(db.stored_name(DomainName("a.b.dns.xx.fbcdn.net")),
            "a.b.dns.xx.fbcdn.net");
}

TEST(PdnsDbTest, UnrelatedNamesUntouched) {
  PassiveDnsDb db(true);
  db.add_rule({"dns.xx.fbcdn.net", 5});
  EXPECT_EQ(db.stored_name(DomainName("www.example.com")), "www.example.com");
}

TEST(PdnsDbTest, RootAndSingleLabelNamesMatchNoRule) {
  PassiveDnsDb db(true);
  db.add_rule({"com", 1});
  db.add_rule({"com", 2});
  EXPECT_EQ(db.stored_name(DomainName(".")), "");
  EXPECT_EQ(db.stored_name(DomainName("com")), "com");
  EXPECT_TRUE(db.add(DomainName("."), RRType::A, "10.0.0.1", 1));
  EXPECT_TRUE(db.add(DomainName("com"), RRType::A, "10.0.0.1", 1));
  EXPECT_EQ(db.folded_additions(), 0u);
}

TEST(PdnsDbTest, FoldingCollapsesStorage) {
  PassiveDnsDb raw(false);
  PassiveDnsDb folded(true);
  const DisposableGroupRule rule{"avqs.vendor.com", 4};
  raw.add_rule(rule);
  folded.add_rule(rule);
  // 1000 one-time names, 4 pooled rdata values.
  for (int i = 0; i < 1000; ++i) {
    const DomainName name("h" + std::to_string(i) + ".avqs.vendor.com");
    const std::string rdata = "127.0.0." + std::to_string(i % 4);
    raw.add(name, RRType::A, rdata, 1);
    folded.add(name, RRType::A, rdata, 1);
  }
  EXPECT_EQ(raw.unique_records(), 1000u);
  EXPECT_EQ(folded.unique_records(), 4u);  // one per pooled rdata
  EXPECT_EQ(folded.folded_additions(), 1000u);
  EXPECT_LT(folded.storage_bytes(), raw.storage_bytes() / 100);
}

TEST(PdnsDbTest, RuleCount) {
  PassiveDnsDb db(true);
  db.add_rule({"a.com", 3});
  db.add_rule({"a.com", 4});
  db.add_rule({"b.com", 3});
  db.add_rule({"b.com", 3});  // duplicate
  EXPECT_EQ(db.rule_count(), 3u);
}

}  // namespace
}  // namespace dnsnoise
