#include "dns/public_suffix.h"

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>

namespace dnsnoise {
namespace {

TEST(PublicSuffixTest, SimpleGtld) {
  const auto& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.effective_tld(DomainName("www.example.com")).text(), "com");
  EXPECT_EQ(psl.registrable_domain(DomainName("www.example.com")).text(),
            "example.com");
}

TEST(PublicSuffixTest, MultiLabelSuffix) {
  const auto& psl = PublicSuffixList::builtin();
  // Paper III-B: com.cn and co.uk are effective TLDs.
  EXPECT_EQ(psl.effective_tld(DomainName("shop.example.co.uk")).text(),
            "co.uk");
  EXPECT_EQ(psl.registrable_domain(DomainName("shop.example.co.uk")).text(),
            "example.co.uk");
  EXPECT_EQ(psl.effective_tld(DomainName("a.b.com.cn")).text(), "com.cn");
  EXPECT_EQ(psl.registrable_domain(DomainName("a.b.com.cn")).text(),
            "b.com.cn");
}

TEST(PublicSuffixTest, DynamicDnsZonesAreSuffixes) {
  const auto& psl = PublicSuffixList::builtin();
  // The paper extends the PSL with dynamic-DNS zones: each customer of
  // dyndns.org controls a separate child zone.
  EXPECT_EQ(psl.registrable_domain(DomainName("host.myhome.dyndns.org")).text(),
            "myhome.dyndns.org");
  EXPECT_EQ(psl.registrable_domain(DomainName("x.app.herokuapp.com")).text(),
            "app.herokuapp.com");
}

TEST(PublicSuffixTest, WildcardRule) {
  const auto& psl = PublicSuffixList::builtin();
  // "*.ck": every direct child of ck is itself a public suffix.
  EXPECT_EQ(psl.effective_tld(DomainName("shop.foo.ck")).text(), "foo.ck");
  EXPECT_EQ(psl.registrable_domain(DomainName("shop.foo.ck")).text(),
            "shop.foo.ck");
}

TEST(PublicSuffixTest, ExceptionRule) {
  const auto& psl = PublicSuffixList::builtin();
  // "!www.ck" carves www.ck out of the wildcard: registrable domain is
  // www.ck itself.
  EXPECT_EQ(psl.registrable_domain(DomainName("a.www.ck")).text(), "www.ck");
  EXPECT_EQ(psl.suffix_label_count(DomainName("www.ck")), 1u);
}

TEST(PublicSuffixTest, UnknownTldFallsBackToOneLabel) {
  const auto& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.effective_tld(DomainName("foo.bar.unknowntld")).text(),
            "unknowntld");
  EXPECT_EQ(psl.registrable_domain(DomainName("foo.bar.unknowntld")).text(),
            "bar.unknowntld");
}

TEST(PublicSuffixTest, PublicSuffixItselfHasNoRegistrableDomain) {
  const auto& psl = PublicSuffixList::builtin();
  EXPECT_TRUE(psl.registrable_domain(DomainName("com")).empty());
  EXPECT_TRUE(psl.registrable_domain(DomainName("co.uk")).empty());
}

TEST(PublicSuffixTest, RootName) {
  const auto& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.suffix_label_count(DomainName("")), 0u);
  EXPECT_TRUE(psl.registrable_domain(DomainName("")).empty());
}

TEST(PublicSuffixTest, CustomRules) {
  PublicSuffixList psl;
  psl.add_rule("example");
  psl.add_rule("*.dyn.example");
  psl.add_rule("!static.dyn.example");
  EXPECT_EQ(psl.registrable_domain(DomainName("a.b.dyn.example")).text(),
            "a.b.dyn.example");
  EXPECT_EQ(psl.registrable_domain(DomainName("x.static.dyn.example")).text(),
            "static.dyn.example");
}

TEST(PublicSuffixTest, RulesTextParsing) {
  PublicSuffixList psl;
  psl.add_rules_text("// comment line\n com \n\nco.uk\r\n*.ck\n!www.ck\n");
  EXPECT_EQ(psl.rule_count(), 4u);
  EXPECT_EQ(psl.effective_tld(DomainName("x.example.co.uk")).text(), "co.uk");
}

TEST(PublicSuffixTest, MalformedRulesThrow) {
  PublicSuffixList psl;
  EXPECT_THROW(psl.add_rule(""), std::invalid_argument);
  EXPECT_THROW(psl.add_rule("bad rule"), std::invalid_argument);
  EXPECT_THROW(psl.add_rule("a..b"), std::invalid_argument);
}

TEST(PublicSuffixTest, EmptyListDefaultsToStar) {
  const PublicSuffixList psl;
  EXPECT_EQ(psl.suffix_label_count(DomainName("a.b.c")), 1u);
  EXPECT_EQ(psl.registrable_domain(DomainName("a.b.c")).text(), "b.c");
}

struct SuffixCase {
  const char* name;
  const char* suffix;
  const char* registrable;  // "" when none
};

// CTest names each case after its printed parameter; gtest's default
// print of this struct is a byte dump of its pointers, which differs on
// every run, so print the query name instead.
void PrintTo(const SuffixCase& c, std::ostream* os) { *os << c.name; }

class SuffixSweepTest : public ::testing::TestWithParam<SuffixCase> {};

TEST_P(SuffixSweepTest, SuffixAndRegistrable) {
  const auto& psl = PublicSuffixList::builtin();
  const SuffixCase& c = GetParam();
  const DomainName name(c.name);
  EXPECT_EQ(psl.effective_tld(name).text(), c.suffix) << c.name;
  EXPECT_EQ(psl.registrable_domain(name).text(), c.registrable) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SuffixSweepTest,
    ::testing::Values(
        SuffixCase{"www.google.com", "com", "google.com"},
        SuffixCase{"a.b.c.d.akamai.net", "net", "akamai.net"},
        SuffixCase{"x.gov.uk", "gov.uk", "x.gov.uk"},
        SuffixCase{"deep.sub.zone.example.org", "org", "example.org"},
        SuffixCase{"com", "com", ""},
        SuffixCase{"avqs.mcafee.com", "com", "mcafee.com"},
        SuffixCase{"edu.cn.example.com", "com", "example.com"}));

}  // namespace
}  // namespace dnsnoise
