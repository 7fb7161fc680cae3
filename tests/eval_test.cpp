#include "ml/eval.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "features/domain_tree.h"
#include "miner/evaluate.h"
#include "ml/baselines.h"
#include "util/rng.h"

namespace dnsnoise {
namespace {

TEST(ConfusionTest, CountsAtThreshold) {
  const std::vector<double> scores = {0.9, 0.8, 0.3, 0.1};
  const std::vector<int> labels = {1, 0, 1, 0};
  const Confusion c = confusion_at(scores, labels, 0.5);
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_DOUBLE_EQ(c.tpr(), 0.5);
  EXPECT_DOUBLE_EQ(c.fpr(), 0.5);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(c.precision(), 0.5);
}

TEST(ConfusionTest, ThresholdIsInclusive) {
  const std::vector<double> scores = {0.5};
  const std::vector<int> labels = {1};
  EXPECT_EQ(confusion_at(scores, labels, 0.5).tp, 1u);
}

TEST(ConfusionTest, EmptyAndDegenerate) {
  const Confusion empty = confusion_at({}, {}, 0.5);
  EXPECT_EQ(empty.accuracy(), 0.0);
  const std::vector<double> scores = {0.9};
  const std::vector<int> labels = {1};
  const Confusion c = confusion_at(scores, labels, 0.5);
  EXPECT_EQ(c.fpr(), 0.0);  // no negatives present
}

TEST(ConfusionTest, SizeMismatchThrows) {
  const std::vector<double> scores = {0.5, 0.6};
  const std::vector<int> labels = {1};
  EXPECT_THROW(confusion_at(scores, labels, 0.5), std::invalid_argument);
}

TEST(RocTest, PerfectRankingHasAucOne) {
  const std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  const std::vector<int> labels = {1, 1, 0, 0};
  const auto curve = roc_curve(scores, labels);
  EXPECT_DOUBLE_EQ(auc(curve), 1.0);
  EXPECT_DOUBLE_EQ(curve.front().tpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().tpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().fpr, 1.0);
}

TEST(RocTest, InvertedRankingHasAucZero) {
  const std::vector<double> scores = {0.9, 0.8, 0.2, 0.1};
  const std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(auc(roc_curve(scores, labels)), 0.0);
}

TEST(RocTest, RandomScoresGiveAucNearHalf) {
  Rng rng(1);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 4000; ++i) {
    scores.push_back(rng.uniform());
    labels.push_back(static_cast<int>(rng.below(2)));
  }
  EXPECT_NEAR(auc(roc_curve(scores, labels)), 0.5, 0.03);
}

TEST(RocTest, TiedScoresCollapseToOnePoint) {
  const std::vector<double> scores = {0.5, 0.5, 0.5, 0.5};
  const std::vector<int> labels = {1, 0, 1, 0};
  const auto curve = roc_curve(scores, labels);
  // Origin + the single tie point.
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[1].tpr, 1.0);
  EXPECT_DOUBLE_EQ(curve[1].fpr, 1.0);
  EXPECT_NEAR(auc(curve), 0.5, 1e-12);
}

TEST(RocTest, MonotoneInBothAxes) {
  Rng rng(2);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 500; ++i) {
    const int y = static_cast<int>(rng.below(2));
    scores.push_back(rng.normal(y == 1 ? 1.0 : 0.0, 1.0));
    labels.push_back(y);
  }
  const auto curve = roc_curve(scores, labels);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].tpr, curve[i - 1].tpr);
    EXPECT_GE(curve[i].fpr, curve[i - 1].fpr);
  }
}

TEST(CrossValTest, EverySampleGetsOneOutOfFoldScore) {
  Rng rng(3);
  Dataset data(1);
  for (int i = 0; i < 100; ++i) {
    const double x[1] = {rng.normal(i % 2 == 0 ? -2.0 : 2.0, 0.5)};
    data.add(x, i % 2);
  }
  const auto scores = cross_val_scores(
      data,
      [] {
        return std::make_unique<GaussianNaiveBayes>();
      },
      10, 1);
  ASSERT_EQ(scores.size(), data.size());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if ((scores[i] >= 0.5) == (data.label(i) == 1)) ++correct;
  }
  EXPECT_GT(correct, data.size() * 9 / 10);
}

TEST(CrossValTest, StratificationKeepsBothClassesPerFold) {
  // With 10 positives in 100 samples, unstratified folds could be empty of
  // positives; stratified ones have exactly one each.
  Rng rng(4);
  Dataset data(1);
  for (int i = 0; i < 100; ++i) {
    const double x[1] = {rng.normal(0, 1)};
    data.add(x, i < 10 ? 1 : 0);
  }
  // Train/test must never throw (an all-one-class test fold is fine, but an
  // all-one-class *training* fold would break some models).
  EXPECT_NO_THROW(cross_val_scores(
      data,
      [] {
        return std::make_unique<LogisticRegression>();
      },
      10, 2));
}

TEST(CrossValTest, InvalidArgsThrow) {
  Dataset data(1);
  const double x[1] = {0.0};
  data.add(x, 0);
  const auto factory = [] {
    return std::make_unique<GaussianNaiveBayes>();
  };
  EXPECT_THROW(cross_val_scores(data, factory, 1, 0), std::invalid_argument);
  EXPECT_THROW(cross_val_scores(data, factory, 5, 0), std::invalid_argument);
}

// --------------------------------------------------------------------------
// FindingCover (miner/evaluate.h)

TEST(FindingIndexTest, RootAndSingleLabelNamesMatchNoRule) {
  std::vector<DisposableZoneFinding> findings(2);
  findings[0].zone = "com";
  findings[0].depth = 1;
  findings[1].zone = "example.com";
  findings[1].depth = 3;
  NameTable names;
  DomainNameTree tree(names);
  const auto id = [&tree](const char* name) {
    return tree.intern(DomainName(name).text());
  };
  const NameId root = id(".");
  const NameId tld = id("com");
  const NameId covered = id("a.example.com");
  FindingCover cover(tree, findings);
  // A finding's zone is a proper ancestor, the root excluded: the root
  // and a bare TLD match no rule, not even (com, 1).
  EXPECT_FALSE(cover.covers(root));
  EXPECT_FALSE(cover.covers(tld));
  EXPECT_TRUE(cover.covers(covered));
}

TEST(FindingCoverTest, DecidesEachIdOnce) {
  std::vector<DisposableZoneFinding> findings(1);
  findings[0].zone = "example.com";
  findings[0].depth = 3;
  NameTable names;
  DomainNameTree tree(names);
  const auto id = [&tree](const char* name) {
    return tree.intern(DomainName(name).text());
  };
  const NameId covered = id("a.example.com");
  const NameId uncovered = id("a.b.example.com");
  FindingCover cover(tree, findings);
  EXPECT_FALSE(cover.covers(kInvalidNameId));
  EXPECT_TRUE(cover.covers(covered));
  EXPECT_FALSE(cover.covers(uncovered));
  // Asking again gives the same answer.
  EXPECT_TRUE(cover.covers(covered));
  EXPECT_FALSE(cover.covers(uncovered));
  const std::vector<NameId> ids{covered, uncovered, kInvalidNameId, covered};
  EXPECT_EQ(cover.count(ids), 2u);
}

}  // namespace
}  // namespace dnsnoise
