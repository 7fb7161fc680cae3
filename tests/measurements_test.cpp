#include "analytics/measurements.h"

#include <gtest/gtest.h>

namespace dnsnoise {
namespace {

/// Tracker fixture: 6 disposable one-shot RRs (TTL 300) + 2 popular RRs.
class MeasurementsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 6; ++i) {
      const std::string name = "h" + std::to_string(i) + ".avqs.vendor.com";
      chr_.record_below(name, RRType::A, "10.0.0.1", 300);
      chr_.record_above(name, RRType::A, "10.0.0.1", 300);
    }
    for (const char* host : {"www", "mail"}) {
      const std::string name = std::string(host) + ".popular.com";
      for (int q = 0; q < 50; ++q) {
        chr_.record_below(name, RRType::A, "10.9.9.9", 3600);
      }
      chr_.record_above(name, RRType::A, "10.9.9.9", 3600);
    }
  }

  static bool is_disposable(const DomainName& name) {
    return name.is_within("avqs.vendor.com");
  }

  NameTable names_;
  CacheHitRateTracker chr_{names_};
};

TEST_F(MeasurementsTest, SortedLookupVolumes) {
  const auto volumes = sorted_lookup_volumes(chr_);
  ASSERT_EQ(volumes.size(), 8u);
  EXPECT_EQ(volumes[0], 50u);
  EXPECT_EQ(volumes[1], 50u);
  EXPECT_EQ(volumes[7], 1u);
}

TEST_F(MeasurementsTest, LookupTailFraction) {
  EXPECT_DOUBLE_EQ(lookup_tail_fraction(chr_, 10), 0.75);
  EXPECT_DOUBLE_EQ(lookup_tail_fraction(chr_, 2), 0.75);
  EXPECT_DOUBLE_EQ(lookup_tail_fraction(chr_, 1), 0.0);
  EXPECT_DOUBLE_EQ(lookup_tail_fraction(chr_, 100), 1.0);
}

TEST_F(MeasurementsTest, ZeroDhrFraction) {
  // The 6 disposable RRs have DHR 0; the two popular ones have 0.98.
  EXPECT_DOUBLE_EQ(zero_dhr_fraction(chr_), 0.75);
}

TEST_F(MeasurementsTest, DhrCdfEndsAtOne) {
  const auto cdf = dhr_cdf(chr_, 11);
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.back().f, 1.0);
  EXPECT_GE(cdf.front().x, 0.0);
}

TEST_F(MeasurementsTest, ChrFractionBelow) {
  // 8 misses total: 6 at CHR 0, 2 at CHR 0.98.
  EXPECT_DOUBLE_EQ(chr_fraction_below(chr_, 0.5), 0.75);
  EXPECT_DOUBLE_EQ(chr_fraction_below(chr_, 1.1), 1.0);
  EXPECT_DOUBLE_EQ(chr_fraction_below(chr_, 0.0), 0.0);
}

TEST_F(MeasurementsTest, LabeledChrStudySeparates) {
  const LabeledChrStudy study = labeled_chr_study(chr_, is_disposable);
  EXPECT_EQ(study.disposable_chr.size(), 6u);
  EXPECT_EQ(study.nondisposable_chr.size(), 2u);
  EXPECT_DOUBLE_EQ(study.disposable_zero_fraction, 1.0);
  EXPECT_DOUBLE_EQ(study.nondisposable_above_058_fraction, 1.0);
}

TEST_F(MeasurementsTest, LookupTailComposition) {
  const TailComposition t = lookup_tail_composition(chr_, is_disposable, 10);
  EXPECT_DOUBLE_EQ(t.tail_fraction, 0.75);
  EXPECT_DOUBLE_EQ(t.disposable_share_of_tail, 1.0);
  EXPECT_DOUBLE_EQ(t.disposable_inside_tail, 1.0);
}

TEST_F(MeasurementsTest, ZeroDhrTailComposition) {
  const TailComposition t = zero_dhr_tail_composition(chr_, is_disposable);
  EXPECT_DOUBLE_EQ(t.tail_fraction, 0.75);
  EXPECT_DOUBLE_EQ(t.disposable_share_of_tail, 1.0);
  EXPECT_DOUBLE_EQ(t.disposable_inside_tail, 1.0);
}

TEST_F(MeasurementsTest, TtlHistogramOnlyCountsDisposable) {
  const LogHistogram histogram =
      disposable_ttl_histogram(chr_, is_disposable);
  EXPECT_EQ(histogram.total(), 6u);
  EXPECT_EQ(histogram.zero_count(), 0u);
}

TEST_F(MeasurementsTest, TtlFractionAtMost) {
  EXPECT_DOUBLE_EQ(disposable_ttl_fraction_at_most(chr_, is_disposable, 300),
                   1.0);
  EXPECT_DOUBLE_EQ(disposable_ttl_fraction_at_most(chr_, is_disposable, 299),
                   0.0);
}

TEST(MeasurementsEdgeTest, EmptyTracker) {
  NameTable names;
  const CacheHitRateTracker chr(names);
  const auto none = [](const DomainName&) { return false; };
  EXPECT_EQ(lookup_tail_fraction(chr), 0.0);
  EXPECT_EQ(zero_dhr_fraction(chr), 0.0);
  EXPECT_TRUE(sorted_lookup_volumes(chr).empty());
  const TailComposition t = lookup_tail_composition(chr, none);
  EXPECT_EQ(t.tail_fraction, 0.0);
  EXPECT_EQ(disposable_ttl_histogram(chr, none).total(), 0u);
  EXPECT_EQ(disposable_ttl_fraction_at_most(chr, none, 100), 0.0);
}

TEST(MeasurementsEdgeTest, ZeroTtlLandsInUnderflowBin) {
  NameTable names;
  CacheHitRateTracker chr(names);
  chr.record_below("a.zone.com", RRType::A, "1", 0);
  const auto all = [](const DomainName&) { return true; };
  const LogHistogram histogram = disposable_ttl_histogram(chr, all);
  EXPECT_EQ(histogram.zero_count(), 1u);
}

}  // namespace
}  // namespace dnsnoise
