#include "miner/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine/parallel_miner.h"
#include "features/domain_tree.h"
#include "miner/evaluate.h"
#include "ml/eval.h"

namespace dnsnoise {
namespace {

ScenarioScale small_scale() {
  ScenarioScale scale;
  scale.queries_per_day = 90'000;
  scale.client_count = 4'000;
  scale.population_scale = 0.5;
  return scale;
}

LabelerConfig small_labeler() {
  LabelerConfig labeler;
  labeler.min_group_size = 8;
  return labeler;
}

class PipelineTest : public ::testing::Test {
 protected:
  static const MiningDayResult& result() {
    // One shared end-to-end run; the assertions below each check one
    // contract of the pipeline.
    static const MiningDayResult shared = MiningSession(small_scale())
                                              .labeler(small_labeler())
                                              .threads(2)
                                              .run(ScenarioDate::kNov14);
    return shared;
  }
};

TEST_F(PipelineTest, ProducesLabeledZonesOfBothClasses) {
  const auto& labeled = result().labeled;
  const auto positives = static_cast<std::size_t>(
      std::count_if(labeled.begin(), labeled.end(),
                    [](const LabeledZone& z) { return z.label == 1; }));
  EXPECT_GT(positives, 25u);
  EXPECT_GT(labeled.size() - positives, 50u);
}

TEST_F(PipelineTest, MinesZonesWithHighPrecision) {
  const MiningEvaluation& eval = result().evaluation;
  EXPECT_GT(eval.findings, 20u);
  EXPECT_GT(eval.finding_precision(), 0.9);
  EXPECT_GT(eval.truth_zones_discovered, 20u);
  EXPECT_LE(eval.unique_2lds, eval.findings);
  EXPECT_EQ(eval.true_positive_findings + eval.false_positive_findings,
            eval.findings);
}

TEST_F(PipelineTest, AggregatesAreConsistent) {
  const DayAggregates& agg = result().aggregates;
  EXPECT_GT(agg.unique_queried, agg.unique_resolved);
  EXPECT_LE(agg.disposable_queried, agg.unique_queried);
  EXPECT_LE(agg.disposable_resolved, agg.unique_resolved);
  EXPECT_LE(agg.disposable_rrs, agg.unique_rrs);
  // Disposable names are successfully resolved names: the queried and
  // resolved disposable counts must be close (mined zones resolve).
  EXPECT_EQ(agg.disposable_queried, agg.disposable_resolved);
  // Shares fall in loose paper-like bands.
  const double queried_share = static_cast<double>(agg.disposable_queried) /
                               static_cast<double>(agg.unique_queried);
  EXPECT_GT(queried_share, 0.10);
  EXPECT_LT(queried_share, 0.45);
}

TEST_F(PipelineTest, FindingsHaveEvidence) {
  for (const auto& finding : result().findings) {
    EXPECT_GE(finding.confidence, 0.9);
    EXPECT_GE(finding.group_size, 5u);
    EXPECT_GT(finding.depth, 2u);
    EXPECT_FALSE(finding.zone.empty());
  }
}

TEST(PipelineUnitTest, FindingIndexMatchesZoneAndDepth) {
  std::vector<DisposableZoneFinding> findings(1);
  findings[0].zone = "vendor.com";
  findings[0].depth = 4;
  NameTable names;
  DomainNameTree tree(names);
  const auto id = [&tree](const char* name) {
    return tree.intern(DomainName(name).text());
  };
  const NameId deep = id("a.avqs.vendor.com");
  const NameId too_deep = id("a.b.avqs.vendor.com");  // depth 5
  const NameId sibling = id("a.avqs.other.com");
  const NameId zone = id("vendor.com");
  FindingCover cover(tree, findings);
  EXPECT_TRUE(cover.covers(deep));
  EXPECT_FALSE(cover.covers(too_deep));
  EXPECT_FALSE(cover.covers(sibling));
  EXPECT_FALSE(cover.covers(zone));
  const std::vector<NameId> ids{deep, too_deep, sibling, zone};
  EXPECT_EQ(cover.count(ids), 1u);
}

TEST(PipelineUnitTest, EvaluateFindingsMatching) {
  GroundTruth truth;
  truth.disposable_zones.push_back({"avqs.vendor.com", 4, "reputation"});
  truth.disposable_apexes.insert("avqs.vendor.com");

  std::vector<DisposableZoneFinding> findings;
  DisposableZoneFinding tp;
  tp.zone = "vendor.com";  // ancestor of the truth apex, same depth
  tp.depth = 4;
  findings.push_back(tp);
  DisposableZoneFinding wrong_depth;
  wrong_depth.zone = "vendor.com";
  wrong_depth.depth = 7;
  findings.push_back(wrong_depth);
  DisposableZoneFinding unrelated;
  unrelated.zone = "innocent.org";
  unrelated.depth = 4;
  findings.push_back(unrelated);

  const MiningEvaluation eval = evaluate_findings(findings, truth);
  EXPECT_EQ(eval.findings, 3u);
  EXPECT_EQ(eval.true_positive_findings, 1u);
  EXPECT_EQ(eval.false_positive_findings, 2u);
  EXPECT_EQ(eval.truth_zones_discovered, 1u);
  EXPECT_EQ(eval.unique_2lds, 2u);
}

TEST(PipelineUnitTest, CrossValidationHitsPaperBands) {
  // Paper Fig. 12: theta=0.5 gives ~97% TPR at ~1% FPR on 10-fold CV.
  DayCapture capture;
  ASSERT_TRUE(MiningSession(small_scale())
                  .threads(2)
                  .simulate(ScenarioDate::kNov14, capture)
                  .ok());
  const Scenario scenario(ScenarioDate::kNov14, small_scale());
  const auto labeled =
      label_zones(capture.tree(), capture.chr(), scenario, small_labeler());
  const Dataset data = to_dataset(labeled);
  const auto scores = cross_val_scores(
      data, [] { return std::make_unique<LadTree>(); }, 10, 2011);
  std::vector<int> labels;
  for (std::size_t i = 0; i < data.size(); ++i) {
    labels.push_back(data.label(i));
  }
  const Confusion at_half = confusion_at(scores, labels, 0.5);
  EXPECT_GT(at_half.tpr(), 0.90);
  EXPECT_LT(at_half.fpr(), 0.05);
  const auto curve = roc_curve(scores, labels);
  EXPECT_GT(auc(curve), 0.97);
}

TEST(PipelineUnitTest, WarmupReducesColdMisses) {
  ScenarioScale scale = small_scale();
  scale.queries_per_day = 20'000;
  MiningSession session(scale);

  DayCapture c1;
  ASSERT_TRUE(session.warmup(true).simulate(ScenarioDate::kFeb01, c1, 0).ok());

  DayCapture c2;
  ASSERT_TRUE(
      session.warmup(false).simulate(ScenarioDate::kFeb01, c2, 0).ok());

  // With warm caches, fewer above-answers for the same below volume.
  EXPECT_LT(c1.above_series().sum_total(), c2.above_series().sum_total());
}

}  // namespace
}  // namespace dnsnoise
