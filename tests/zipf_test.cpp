#include "util/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace dnsnoise {
namespace {

TEST(ZipfTest, PmfSumsToOne) {
  const ZipfSampler zipf(100, 1.0);
  double total = 0.0;
  for (std::size_t r = 0; r < zipf.size(); ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, PmfMonotoneNonIncreasing) {
  const ZipfSampler zipf(50, 1.2);
  for (std::size_t r = 1; r < zipf.size(); ++r) {
    EXPECT_LE(zipf.pmf(r), zipf.pmf(r - 1) + 1e-12);
  }
}

TEST(ZipfTest, ExponentZeroIsUniform) {
  const ZipfSampler zipf(10, 0.0);
  for (std::size_t r = 0; r < zipf.size(); ++r) {
    EXPECT_NEAR(zipf.pmf(r), 0.1, 1e-9);
  }
}

TEST(ZipfTest, PmfOutOfRangeIsZero) {
  const ZipfSampler zipf(5, 1.0);
  EXPECT_EQ(zipf.pmf(5), 0.0);
  EXPECT_EQ(zipf.pmf(1000), 0.0);
}

TEST(ZipfTest, SamplesStayInRange) {
  const ZipfSampler zipf(20, 1.0);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.sample(rng), 20u);
  }
}

TEST(ZipfTest, HeadHeavierThanTail) {
  const ZipfSampler zipf(1000, 1.0);
  Rng rng(2);
  std::size_t head = 0;
  std::size_t tail = 0;
  for (int i = 0; i < 50000; ++i) {
    const std::size_t r = zipf.sample(rng);
    if (r < 10) ++head;
    if (r >= 990) ++tail;
  }
  EXPECT_GT(head, tail * 10);
}

TEST(ZipfTest, EmpiricalFrequencyMatchesPmf) {
  const ZipfSampler zipf(8, 1.0);
  Rng rng(3);
  std::vector<std::size_t> counts(8, 0);
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 0; r < 8; ++r) {
    const double freq = static_cast<double>(counts[r]) / kSamples;
    EXPECT_NEAR(freq, zipf.pmf(r), 0.01) << "rank " << r;
  }
}

TEST(ZipfTest, SingleRank) {
  const ZipfSampler zipf(1, 2.0);
  Rng rng(4);
  EXPECT_EQ(zipf.sample(rng), 0u);
  EXPECT_NEAR(zipf.pmf(0), 1.0, 1e-12);
}

TEST(ZipfTest, InvalidArgumentsThrow) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.5), std::invalid_argument);
}

TEST(ZipfTest, GuideTableMatchesLowerBound) {
  // rank_of must return exactly what a binary search over the whole CDF
  // returns, at the inputs where an off-by-one bucket would show: every
  // bucket edge k/M, every CDF value, their neighbours, the ends of [0, 1),
  // and a run of seeded draws.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 64u, 1000u, 75000u,
                              150000u}) {
    for (const double s : {0.0, 0.8, 1.0, 1.2, 3.0}) {
      const ZipfSampler zipf(n, s);
      std::vector<double> cdf(n);
      double total = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), s);
        cdf[r] = total;
      }
      for (double& value : cdf) value /= total;
      cdf.back() = 1.0;

      std::size_t mismatches = 0;
      const auto check = [&](double u) {
        if (!(u >= 0.0 && u < 1.0)) return;
        const auto expected = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        if (zipf.rank_of(u) != expected) ++mismatches;
      };
      const auto check_around = [&](double u) {
        check(std::nextafter(u, -1.0));
        check(u);
        check(std::nextafter(u, 2.0));
      };
      const std::size_t buckets = std::bit_ceil(n);
      for (std::size_t k = 0; k <= buckets; ++k) {
        check_around(static_cast<double>(k) / static_cast<double>(buckets));
      }
      for (const double value : cdf) check_around(value);
      check(0.0);
      check(std::nextafter(1.0, 0.0));
      Rng rng(n * 31 + static_cast<std::uint64_t>(s * 10.0));
      for (int i = 0; i < 200'000; ++i) check(rng.uniform());
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << s;
    }
  }
}

class ZipfExponentTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentTest, CdfCoversUnitIntervalAtEveryExponent) {
  const ZipfSampler zipf(64, GetParam());
  double total = 0.0;
  for (std::size_t r = 0; r < zipf.size(); ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.sample(rng), 64u);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentTest,
                         ::testing::Values(0.0, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0));

}  // namespace
}  // namespace dnsnoise
