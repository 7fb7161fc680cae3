#include "util/histogram.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace dnsnoise {
namespace {

TEST(LogHistogramTest, ZeroGoesToUnderflowBin) {
  LogHistogram h(86400.0);
  h.add(0.0);
  h.add(0.5);
  h.add(1.0);
  EXPECT_EQ(h.zero_count(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(LogHistogramTest, ValuesLandInLogBins) {
  LogHistogram h(100000.0, 1);  // one bin per decade
  h.add(5.0);      // decade 0 (1..10)
  h.add(50.0);     // decade 1
  h.add(5000.0);   // decade 3
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(LogHistogramTest, OverflowClampsToLastBin) {
  LogHistogram h(1000.0, 1);
  h.add(1e9);
  EXPECT_EQ(h.count(h.bins() - 1), 1u);
}

TEST(LogHistogramTest, BinEdgesAreOrdered) {
  LogHistogram h(86400.0, 4);
  for (std::size_t b = 0; b < h.bins(); ++b) {
    EXPECT_LT(h.bin_lo(b), h.bin_hi(b));
    EXPECT_GE(h.bin_center(b), h.bin_lo(b));
    EXPECT_LE(h.bin_center(b), h.bin_hi(b));
  }
}

TEST(LogHistogramTest, InvalidArgsThrow) {
  EXPECT_THROW(LogHistogram(0.5), std::invalid_argument);
  EXPECT_THROW(LogHistogram(100.0, 0), std::invalid_argument);
}

TEST(CdfTest, CdfAtKnownPoints) {
  const std::vector<double> values = {0.0, 0.0, 0.5, 1.0};
  EXPECT_DOUBLE_EQ(cdf_at(values, -0.1), 0.0);
  EXPECT_DOUBLE_EQ(cdf_at(values, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf_at(values, 0.5), 0.75);
  EXPECT_DOUBLE_EQ(cdf_at(values, 1.0), 1.0);
}

TEST(CdfTest, EmpiricalCdfEmptyAndTiny) {
  EXPECT_TRUE(empirical_cdf({}).empty());
  const std::vector<double> one = {3.0};
  const auto cdf = empirical_cdf(one, 5);
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.back().f, 1.0);
}

class EmpiricalCdfPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EmpiricalCdfPropertyTest, MonotoneAndBounded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.uniform());
  const auto cdf = empirical_cdf(values, 51);
  ASSERT_FALSE(cdf.empty());
  double prev_x = cdf.front().x;
  double prev_f = 0.0;
  for (const CdfPoint& point : cdf) {
    EXPECT_GE(point.x, prev_x - 1e-12);
    EXPECT_GE(point.f, prev_f - 1e-12);
    EXPECT_GE(point.f, 0.0);
    EXPECT_LE(point.f, 1.0);
    prev_x = point.x;
    prev_f = point.f;
  }
  EXPECT_DOUBLE_EQ(cdf.back().f, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmpiricalCdfPropertyTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace dnsnoise
