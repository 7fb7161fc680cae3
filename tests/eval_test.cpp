#include "ml/eval.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
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

TEST(FindingCoverTest, RangesOnAPoolDecideAsTheSerialPass) {
  // More ids than one range, decided through a ParallelFor that runs the
  // ranges backwards: every id must get the serial answer, which must be
  // the definition (an ancestor below the root is a finding's zone at the
  // name's depth).
  NameTable names;
  DomainNameTree tree(names);
  for (int i = 0; i < 40'000; ++i) {
    tree.insert(DomainName("n" + std::to_string(i) + ".z" +
                           std::to_string(i % 50) + ".example.com"));
  }
  tree.insert(DomainName("deep.n1.z1.example.com"));
  std::vector<DisposableZoneFinding> findings(3);
  findings[0].zone = "z3.example.com";
  findings[0].depth = 4;
  findings[1].zone = "example.com";
  findings[1].depth = 5;
  findings[2].zone = "absent.org";
  findings[2].depth = 3;
  const ParallelFor backwards =
      [](std::size_t n, const std::function<void(std::size_t)>& body) {
        for (std::size_t i = n; i > 0; --i) body(i - 1);
      };
  const FindingCover serial(tree, findings);
  const FindingCover ranged(tree, findings, backwards);
  std::size_t covered = 0;
  for (NameId id = 0; id < names.size(); ++id) {
    const std::string_view name = names.name(id);
    const bool want =
        (tree.depth(id) == 4 && name.ends_with(".z3.example.com")) ||
        (tree.depth(id) == 5 && name.ends_with(".example.com"));
    ASSERT_EQ(serial.covers(id), want) << name;
    ASSERT_EQ(ranged.covers(id), want) << name;
    covered += want ? 1 : 0;
  }
  EXPECT_EQ(covered, 801u);  // n*.z3 (800) and deep.n1.z1
}

// --------------------------------------------------------------------------
// evaluate_findings (miner/evaluate.h)

/// The definition, pair by pair: every finding against every truth apex.
MiningEvaluation pairwise_evaluation(
    std::span<const DisposableZoneFinding> findings, const GroundTruth& truth,
    const PublicSuffixList& psl) {
  MiningEvaluation eval;
  eval.findings = findings.size();
  std::set<std::string> unique_2lds;
  std::map<std::string, std::string> archetype_of;
  for (const DisposableZoneFinding& finding : findings) {
    const auto zone = DomainName::parse(finding.zone);
    if (zone) {
      const DomainName registrable = psl.registrable_domain(*zone);
      unique_2lds.insert(registrable.empty() ? finding.zone
                                             : registrable.text());
    }
    bool matched = false;
    for (const GroundTruth::ZoneInfo& info : truth.disposable_zones) {
      const auto apex = DomainName::parse(info.apex);
      if (info.name_depth != finding.depth || !apex || !zone) continue;
      if (apex->is_within(*zone) || zone->is_within(*apex)) {
        matched = true;
        archetype_of[info.apex] = info.archetype;
      }
    }
    matched ? ++eval.true_positive_findings : ++eval.false_positive_findings;
  }
  eval.unique_2lds = unique_2lds.size();
  eval.truth_zones_discovered = archetype_of.size();
  for (const auto& [apex, archetype] : archetype_of) {
    ++eval.discovered_by_archetype[archetype];
  }
  return eval;
}

void expect_same(const MiningEvaluation& got, const MiningEvaluation& want) {
  EXPECT_EQ(got.findings, want.findings);
  EXPECT_EQ(got.true_positive_findings, want.true_positive_findings);
  EXPECT_EQ(got.false_positive_findings, want.false_positive_findings);
  EXPECT_EQ(got.unique_2lds, want.unique_2lds);
  EXPECT_EQ(got.truth_zones_discovered, want.truth_zones_discovered);
  EXPECT_EQ(got.discovered_by_archetype, want.discovered_by_archetype);
}

DisposableZoneFinding finding(std::string zone, std::size_t depth) {
  DisposableZoneFinding f;
  f.zone = std::move(zone);
  f.depth = depth;
  return f;
}

TEST(EvaluateFindingsTest, OddNamesMatchAsThePairwiseDefinition) {
  // Apexes and zones that are not normalized or do not parse, the root,
  // repeated apexes (the last match names the archetype), an apex within
  // another, a text suffix that is not a label suffix, public suffixes.
  GroundTruth truth;
  truth.disposable_zones = {
      {"avqs.vendor.com", 4, "reputation"},
      {"AVQS.Vendor.com.", 4, "telemetry"},
      {"avqs.vendor.com", 4, "cdn"},
      {"deep.avqs.vendor.com", 4, "tracking"},
      {"vendor.com", 3, "reputation"},
      {"bad..name", 4, "broken"},
      {"", 4, "root"},
      {"x.co.uk", 3, "telemetry"},
      {"xvendor.com", 3, "cdn"},
  };
  const std::vector<DisposableZoneFinding> findings = {
      finding("vendor.com", 4),         finding("Vendor.COM.", 3),
      finding("a.avqs.vendor.com", 4),  finding("avqs.vendor.com", 4),
      finding("endor.com", 3),          finding("vendor.com", 7),
      finding("co.uk", 3),              finding("y.x.co.uk", 3),
      finding("x.co.uk", 3),            finding("not a name", 4),
      finding("", 4),                   finding("com", 1),
      finding("innocent.org", 4),       finding("avqs.vendor.com", 4),
  };
  const PublicSuffixList& psl = PublicSuffixList::builtin();
  const MiningEvaluation want = pairwise_evaluation(findings, truth, psl);
  expect_same(evaluate_findings(findings, truth, psl), want);
  EXPECT_GT(want.true_positive_findings, 0u);
  EXPECT_GT(want.false_positive_findings, 0u);
  EXPECT_EQ(evaluate_findings({}, truth, psl).unique_2lds, 0u);
  expect_same(evaluate_findings(findings, GroundTruth{}, psl),
              pairwise_evaluation(findings, GroundTruth{}, psl));
}

TEST(EvaluateFindingsTest, SeededNamesMatchAsThePairwiseDefinition) {
  // Names drawn from a few labels, so apexes and zones nest, repeat and
  // share suffixes often.
  const char* const labels[] = {"a", "b", "ab", "com", "co", "uk", "x"};
  const char* const archetypes[] = {"reputation", "telemetry", "cdn"};
  const PublicSuffixList& psl = PublicSuffixList::builtin();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto draw_name = [&] {
      std::string name;
      const std::size_t count = 1 + rng.below(4);
      for (std::size_t i = 0; i < count; ++i) {
        if (i > 0) name += '.';
        name += labels[rng.below(std::size(labels))];
      }
      return name;
    };
    GroundTruth truth;
    for (std::size_t i = 0, n = rng.below(30); i < n; ++i) {
      truth.disposable_zones.push_back(
          {draw_name(), 1 + rng.below(4), archetypes[rng.below(3)]});
    }
    std::vector<DisposableZoneFinding> findings;
    for (std::size_t i = 0, n = rng.below(40); i < n; ++i) {
      findings.push_back(finding(draw_name(), 1 + rng.below(4)));
    }
    expect_same(evaluate_findings(findings, truth, psl),
                pairwise_evaluation(findings, truth, psl));
  }
}

}  // namespace
}  // namespace dnsnoise
