#include "miner/algorithm1.h"

#include <gtest/gtest.h>

#include "ml/lad_tree.h"
#include "util/rng.h"
#include "workload/label_gen.h"

namespace dnsnoise {
namespace {

/// Fixture: plants one disposable zone (hash children, one query + one miss
/// each) and one popular zone (human hosts, well cached), then trains a LAD
/// tree on equivalent synthetic groups.
class Algorithm1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    // Planted disposable zone: 40 one-time hash names.
    for (int i = 0; i < 40; ++i) {
      add_rr(rng.hex_string(24) + ".avqs.vendor.com", 1, 1);
    }
    // Planted popular zone: 8 human hostnames, well cached.
    const char* hosts[] = {"www", "mail", "img",  "api",
                           "cdn", "m",    "shop", "news"};
    for (const char* host : hosts) {
      add_rr(std::string(host) + ".popular.com", 200, 3);
    }
    train_model(rng);
  }

  void add_rr(const std::string& name, std::uint64_t queries,
              std::uint64_t misses) {
    tree_.insert(DomainName(name));
    for (std::uint64_t q = 0; q < queries; ++q) {
      chr_.record_below(name, RRType::A, "10.0.0.1");
    }
    for (std::uint64_t m = 0; m < misses; ++m) {
      chr_.record_above(name, RRType::A, "10.0.0.1");
    }
  }

  void train_model(Rng& rng) {
    // Train on independently generated groups with the same two shapes.
    Dataset data(kFeatureCount);
    for (int sample = 0; sample < 40; ++sample) {
      NameTable names;
      DomainNameTree tree(names);
      CacheHitRateTracker chr(names);
      std::vector<NameId> group;
      const bool disposable = sample % 2 == 0;
      const std::size_t count =
          disposable ? 15 + rng.below(40) : 4 + rng.below(12);
      for (std::size_t i = 0; i < count; ++i) {
        const std::string label =
            disposable ? rng.hex_string(20 + rng.below(10))
                       : human_hostname(i);
        const std::string name = label + ".zone.test";
        group.push_back(tree.insert(DomainName(name)));
        const std::uint64_t queries = disposable ? 1 : 50 + rng.below(200);
        const std::uint64_t misses = disposable ? 1 : 1 + rng.below(4);
        for (std::uint64_t q = 0; q < queries; ++q) {
          chr.record_below(name, RRType::A, "1");
        }
        for (std::uint64_t m = 0; m < misses; ++m) {
          chr.record_above(name, RRType::A, "1");
        }
      }
      const GroupFeatures features =
          compute_group_features(tree, group, 2, chr);
      data.add(features.as_array(), disposable ? 1 : 0);
    }
    model_.train(data);
  }

  NameTable names_;
  DomainNameTree tree_{names_};
  CacheHitRateTracker chr_{names_};
  LadTree model_;
};

TEST_F(Algorithm1Test, FindsPlantedZoneAndDecolors) {
  const DisposableZoneMiner miner(model_);
  const std::size_t black_before = tree_.black_count();
  const auto findings = miner.mine(tree_, chr_);
  ASSERT_EQ(findings.size(), 1u);
  // Algorithm 1 starts at the 2LD and recurses; depending on how the
  // adjacent-label features score at each level, the group is attributed
  // at the 2LD or at the generating sub-zone.  Both are correct outputs.
  EXPECT_TRUE(findings[0].zone == "vendor.com" ||
              findings[0].zone == "avqs.vendor.com")
      << findings[0].zone;
  EXPECT_EQ(findings[0].depth, 4u);
  EXPECT_EQ(findings[0].group_size, 40u);
  EXPECT_GE(findings[0].confidence, 0.9);
  // The classified group was decolored.
  EXPECT_EQ(tree_.black_count(), black_before - 40u);
  // The popular zone survived untouched.
  EXPECT_TRUE(tree_.black(tree_.find(DomainName("www.popular.com"))));
}

TEST_F(Algorithm1Test, SecondPassFindsNothingNew) {
  const DisposableZoneMiner miner(model_);
  (void)miner.mine(tree_, chr_);
  const auto second = miner.mine(tree_, chr_);
  EXPECT_TRUE(second.empty());
}

TEST_F(Algorithm1Test, MinGroupSizeGate) {
  MinerConfig config;
  config.min_group_size = 100;  // larger than the planted group
  const DisposableZoneMiner miner(model_, config);
  EXPECT_TRUE(miner.mine(tree_, chr_).empty());
}

TEST_F(Algorithm1Test, ThresholdGate) {
  MinerConfig config;
  config.threshold = 1.1;  // unreachable
  const DisposableZoneMiner miner(model_, config);
  EXPECT_TRUE(miner.mine(tree_, chr_).empty());
}

TEST_F(Algorithm1Test, RecursesIntoChildZones) {
  // Add a second disposable group deeper under an already-busy 2LD whose
  // *top-level* group is non-disposable: recursion must still find it.
  Rng rng(9);
  const char* hosts[] = {"www", "mail", "api", "img"};
  for (const char* host : hosts) {
    add_rr(std::string(host) + ".mixed.com", 300, 2);
  }
  for (int i = 0; i < 30; ++i) {
    add_rr(rng.hex_string(22) + ".t.metrics.mixed.com", 1, 1);
  }
  const DisposableZoneMiner miner(model_);
  const auto findings = miner.mine(tree_, chr_);
  bool found_deep = false;
  for (const auto& finding : findings) {
    if (finding.depth == 5 &&
        (finding.zone == "mixed.com" || finding.zone == "metrics.mixed.com" ||
         finding.zone == "t.metrics.mixed.com")) {
      found_deep = true;
    }
  }
  EXPECT_TRUE(found_deep);
  EXPECT_TRUE(tree_.black(tree_.find(DomainName("www.mixed.com"))));
}

TEST_F(Algorithm1Test, FindingsAreRankedByConfidence) {
  Rng rng(11);
  for (int i = 0; i < 25; ++i) {
    add_rr(rng.hex_string(30) + ".zen.other.org", 1, 1);
  }
  const DisposableZoneMiner miner(model_);
  const auto findings = miner.mine(tree_, chr_);
  ASSERT_GE(findings.size(), 2u);
  for (std::size_t i = 1; i < findings.size(); ++i) {
    EXPECT_GE(findings[i - 1].confidence, findings[i].confidence);
  }
}

}  // namespace
}  // namespace dnsnoise
