#include "features/extractor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "workload/label_gen.h"

namespace dnsnoise {
namespace {

/// Builds a tree + CHR fixture where `count` names of the form
/// <label_i>.<zone> exist, each with `queries` below and `misses` above.
struct Fixture {
  NameTable names;
  DomainNameTree tree{names};
  CacheHitRateTracker chr{names};
  std::vector<NameId> group;
  std::size_t zone_depth = 0;

  void add_name(const std::string& name, std::uint64_t queries,
                std::uint64_t misses) {
    group.push_back(tree.insert(DomainName(name)));
    for (std::uint64_t q = 0; q < queries; ++q) {
      chr.record_below(name, RRType::A, "10.0.0.1");
    }
    for (std::uint64_t m = 0; m < misses; ++m) {
      chr.record_above(name, RRType::A, "10.0.0.1");
    }
  }
};

TEST(ExtractorTest, DisposableShapedGroup) {
  Fixture fx;
  fx.zone_depth = 3;  // zone like avqs.vendor.com
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    fx.add_name(rng.hex_string(24) + ".avqs.vendor.com", 1, 1);
  }
  const GroupFeatures f =
      compute_group_features(fx.tree, fx.group, fx.zone_depth, fx.chr);
  EXPECT_EQ(f.group_size, 50u);
  EXPECT_DOUBLE_EQ(f.label_cardinality, 50.0);
  EXPECT_GT(f.entropy_median, 3.0);  // hex hashes are high-entropy
  EXPECT_DOUBLE_EQ(f.chr_median, 0.0);
  EXPECT_DOUBLE_EQ(f.chr_zero_frac, 1.0);
}

TEST(ExtractorTest, PopularShapedGroup) {
  Fixture fx;
  fx.zone_depth = 2;  // zone like popular.com
  const char* hosts[] = {"www", "mail", "img", "api", "cdn"};
  for (const char* host : hosts) {
    fx.add_name(std::string(host) + ".popular.com", 100, 5);
  }
  const GroupFeatures f =
      compute_group_features(fx.tree, fx.group, fx.zone_depth, fx.chr);
  EXPECT_DOUBLE_EQ(f.label_cardinality, 5.0);
  EXPECT_LT(f.entropy_median, 2.1);  // human words are low-entropy
  EXPECT_DOUBLE_EQ(f.chr_median, 0.95);
  EXPECT_DOUBLE_EQ(f.chr_zero_frac, 0.0);
}

TEST(ExtractorTest, AdjacentLabelsNotLeafLabels) {
  // Names two levels under the zone: L_k must collect the labels *next to*
  // the zone, not the leaf labels (paper Section V-A1).
  Fixture fx;
  fx.zone_depth = 2;  // zone = example.com
  fx.add_name("1.a.example.com", 1, 1);
  fx.add_name("2.a.example.com", 1, 1);
  fx.add_name("3.b.example.com", 1, 1);
  const GroupFeatures f =
      compute_group_features(fx.tree, fx.group, fx.zone_depth, fx.chr);
  // Adjacent labels are {a, b}, not {1, 2, 3}.
  EXPECT_DOUBLE_EQ(f.label_cardinality, 2.0);
}

TEST(ExtractorTest, EmptyGroup) {
  const Fixture fx;
  const GroupFeatures f = compute_group_features(fx.tree, {}, 2, fx.chr);
  EXPECT_EQ(f.group_size, 0u);
  EXPECT_DOUBLE_EQ(f.label_cardinality, 0.0);
}

TEST(ExtractorTest, GroupWithNoMissesIsPerfectlyCached) {
  Fixture fx;
  fx.zone_depth = 2;
  fx.add_name("www.zone.com", 50, 0);
  const GroupFeatures f =
      compute_group_features(fx.tree, fx.group, fx.zone_depth, fx.chr);
  // No misses: empty CHR distribution behaves as perfectly cached.
  EXPECT_DOUBLE_EQ(f.chr_median, 1.0);
  EXPECT_DOUBLE_EQ(f.chr_zero_frac, 0.0);
}

TEST(ExtractorTest, WeightedMedianUsesMissCounts) {
  Fixture fx;
  fx.zone_depth = 2;
  // One RR with a single miss at DHR 0.9, one RR with nine misses at 0.
  fx.add_name("hot.zone.com", 10, 1);
  fx.add_name("cold.zone.com", 9, 9);
  const GroupFeatures f =
      compute_group_features(fx.tree, fx.group, fx.zone_depth, fx.chr);
  // 10 CHR samples: nine 0.0 and one 0.9 -> median 0.
  EXPECT_DOUBLE_EQ(f.chr_median, 0.0);
  EXPECT_DOUBLE_EQ(f.chr_zero_frac, 0.5);  // 1 of 2 RRs is zero-CHR
}

TEST(ExtractorTest, FeatureArrayOrderMatchesNames) {
  GroupFeatures f;
  f.label_cardinality = 1;
  f.entropy_max = 2;
  f.entropy_min = 3;
  f.entropy_mean = 4;
  f.entropy_median = 5;
  f.entropy_var = 6;
  f.chr_median = 7;
  f.chr_zero_frac = 8;
  const auto array = f.as_array();
  ASSERT_EQ(array.size(), kFeatureCount);
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    EXPECT_DOUBLE_EQ(array[i], static_cast<double>(i + 1));
  }
}

class ExtractorSeparationTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ExtractorSeparationTest, DisposableAndPopularGroupsSeparate) {
  // Property: across seeds, the two group shapes remain separable on the
  // features the classifier uses.
  Rng rng(GetParam());
  Fixture disposable;
  disposable.zone_depth = 3;
  for (int i = 0; i < 30; ++i) {
    disposable.add_name(
        rng.string_over("abcdefghijklmnopqrstuvwxyz234567", 26) +
            ".avqs.vendor.com",
        1, 1);
  }
  Fixture popular;
  popular.zone_depth = 2;
  for (int i = 0; i < 10; ++i) {
    popular.add_name(human_hostname(static_cast<std::size_t>(i)) +
                         ".popular.com",
                     20 + rng.below(100), 1 + rng.below(3));
  }
  const GroupFeatures fd =
      compute_group_features(disposable.tree, disposable.group,
                             disposable.zone_depth, disposable.chr);
  const GroupFeatures fp =
      compute_group_features(popular.tree, popular.group, popular.zone_depth,
                             popular.chr);
  EXPECT_GT(fd.chr_zero_frac, fp.chr_zero_frac);
  EXPECT_GT(fd.entropy_median, fp.entropy_median);
  EXPECT_LT(fd.chr_median, fp.chr_median);
  EXPECT_GT(fd.label_cardinality, fp.label_cardinality);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractorSeparationTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(ExtractorTest, ChrMedianIsTheMissWeightedMedianRate) {
  // Small counts give many tied rates; the median must be the rate at
  // which a rate-sorted walk of the misses crosses half, as defined.
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    Fixture fx;
    fx.zone_depth = 2;
    std::vector<std::pair<double, std::uint64_t>> sample;
    const std::size_t count = 1 + rng.below(400);
    for (std::size_t i = 0; i < count; ++i) {
      const std::string name = "h" + std::to_string(i) + ".zone.test";
      fx.add_name(name, rng.below(6), rng.below(4));
      const auto* counts = fx.chr.find({name, RRType::A, "10.0.0.1"});
      if (counts != nullptr && counts->above > 0) {
        sample.emplace_back(CacheHitRateTracker::dhr(*counts), counts->above);
      }
    }
    std::sort(sample.begin(), sample.end());
    std::uint64_t total = 0;
    for (const auto& entry : sample) total += entry.second;
    double want = 1.0;
    std::uint64_t seen = 0;
    for (const auto& [rate, weight] : sample) {
      seen += weight;
      if (seen * 2 >= total) {
        want = rate;
        break;
      }
    }
    const GroupFeatures f =
        compute_group_features(fx.tree, fx.group, fx.zone_depth, fx.chr);
    EXPECT_EQ(f.chr_median, want) << "trial " << trial;
  }
}

}  // namespace
}  // namespace dnsnoise
