// Reference miner: the labeler's groups, the features and Algorithm 1 of
// the fast miner checked against tests/reference_miner.h, a string-keyed
// model written from the paper that shares no code with src/features or
// src/miner.
//
// Each day is captured by the hand-driven engine day of reference_day.h,
// the day's model is trained on the fast labeler's groups, and the same
// model then drives the reference walk and the fast one:
// DisposableZoneMiner::mine and mine_zones_parallel at 1 and 4 threads,
// each on a fresh copy of the merged capture (mining decolors the tree).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "reference_day.h"

namespace dnsnoise::reference {
namespace {

constexpr double kTolerance = 1e-9;

void expect_features(const GroupFeatures& got, const Features& want,
                     const std::string& what) {
  const auto array = got.as_array();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(array[i], want[i], kTolerance)
        << what << ' ' << kFeatureNames[i];
  }
}

using Mine = std::function<std::vector<DisposableZoneFinding>(
    const DisposableZoneMiner&, DomainNameTree&, const CacheHitRateTracker&)>;

/// Mines a fresh copy of `day`'s capture with `mine` and compares the
/// findings and the classified-group count with the reference walk.
void expect_same_mining(const CapturedDay& day, const BinaryClassifier& model,
                        const MinerConfig& base, const Mine& mine,
                        const std::vector<Group>& want,
                        std::size_t want_classified) {
  DayCapture copy;
  copy.start_day(day.day_index);
  copy.merge_from(day.capture);
  obs::MetricsRegistry registry;
  MinerConfig config = base;
  config.metrics = &registry;
  const DisposableZoneMiner miner(model, config);
  std::vector<DisposableZoneFinding> got = mine(miner, copy.tree(), copy.chr());
  EXPECT_EQ(registry.counter("miner.groups_classified").value(),
            want_classified);
  std::sort(got.begin(), got.end(),
            [](const DisposableZoneFinding& a, const DisposableZoneFinding& b) {
              return std::tie(a.zone, a.depth) < std::tie(b.zone, b.depth);
            });
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string what = want[i].zone + '/' + std::to_string(want[i].depth);
    ASSERT_EQ(got[i].zone, want[i].zone) << "finding " << i;
    ASSERT_EQ(got[i].depth, want[i].depth) << what;
    EXPECT_EQ(got[i].group_size, want[i].size) << what;
    EXPECT_EQ(got[i].features.group_size, want[i].size) << what;
    expect_features(got[i].features, want[i].features, what);
  }
}

struct DayOutcome {
  std::size_t labeled = 0;
  std::size_t findings = 0;
  std::size_t classified = 0;
};

/// Captures one day, then checks its labeled groups and, with a model
/// trained on them, its mining against the reference.
DayOutcome check_day(const DayParams& params, const LabelerConfig& labeler) {
  CapturedDay day;
  run_day(params, day);
  const Scenario& scenario = *day.scenario;

  // The labeled groups, read before any decoloring.
  DayCapture labeling;
  labeling.start_day(day.day_index);
  labeling.merge_from(day.capture);
  const std::vector<LabeledZone> labeled =
      label_zones(labeling.tree(), labeling.chr(), scenario, labeler);
  ReferenceMiner reference(day.reference);
  LabelerParams params_ref;
  params_ref.disposable_zones = labeler.disposable_zones;
  params_ref.nondisposable_zones = labeler.nondisposable_zones;
  params_ref.min_group_size = labeler.min_group_size;
  const std::vector<Group> want_labels = reference.label(scenario, params_ref);
  EXPECT_EQ(labeled.size(), want_labels.size());
  bool positive = false;
  bool negative = false;
  for (std::size_t i = 0; i < std::min(labeled.size(), want_labels.size());
       ++i) {
    const std::string what =
        want_labels[i].zone + '/' + std::to_string(want_labels[i].depth);
    EXPECT_EQ(labeled[i].zone, want_labels[i].zone) << "label " << i;
    EXPECT_EQ(labeled[i].depth, want_labels[i].depth) << what;
    EXPECT_EQ(labeled[i].label, want_labels[i].label) << what;
    EXPECT_EQ(labeled[i].features.group_size, want_labels[i].size) << what;
    expect_features(labeled[i].features, want_labels[i].features, what);
    (labeled[i].label == 1 ? positive : negative) = true;
  }

  // The day's own model, trained on both classes.
  EXPECT_TRUE(positive && negative);
  LadTree model;
  model.train(to_dataset(labeled));

  const MinerConfig config;
  const PublicSuffixList& psl = *config.psl;
  const std::vector<Group> want = reference.mine(
      model, config.threshold, config.min_group_size, psl);
  const std::size_t classified = reference.groups_classified();
  expect_same_mining(
      day, model, config,
      [](const DisposableZoneMiner& miner, DomainNameTree& tree,
         const CacheHitRateTracker& chr) { return miner.mine(tree, chr); },
      want, classified);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    expect_same_mining(
        day, model, config,
        [&psl, threads](const DisposableZoneMiner& miner, DomainNameTree& tree,
                        const CacheHitRateTracker& chr) {
          return mine_zones_parallel(miner, tree, chr, psl, threads);
        },
        want, classified);
  }
  return {labeled.size(), want.size(), classified};
}

ScenarioScale golden_scale() {
  ScenarioScale scale;
  scale.queries_per_day = 30'000;
  scale.client_count = 1'500;
  return scale;
}

DayParams golden_params() {
  DayParams params;
  params.scale = golden_scale();
  params.cluster.server_count = 4;
  params.cluster.cache.capacity = 1 << 14;
  return params;
}

TEST(ReferenceMinerTest, GoldenDayMatchesTheReference) {
  const DayOutcome outcome = check_day(golden_params(), LabelerConfig{});
  // The day exercises every part of the walk.
  EXPECT_GT(outcome.labeled, 0u);
  EXPECT_GT(outcome.findings, 0u);
  EXPECT_GT(outcome.classified, outcome.findings);
}

TEST(ReferenceMinerTest, SeededSmallDaysMatchTheReference) {
  // Small days label smaller groups, so each of them holds both classes.
  LabelerConfig labeler;
  labeler.min_group_size = 5;
  std::size_t findings = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    DayParams params;
    params.date = kAllScenarioDates[seed % kAllScenarioDates.size()];
    params.scale.queries_per_day = 6'000 + 700 * (seed % 7);
    params.scale.client_count = 400 + 30 * seed;
    params.scale.population_scale = 0.15 + 0.05 * static_cast<double>(seed % 8);
    params.scale.seed = 3001 + seed;
    params.scale.traffic_stream = seed;
    params.cluster.server_count = 1 + seed % 4;
    params.cluster.cache.capacity = seed % 3 == 0 ? 256 : 1 << 12;
    params.warmup = seed % 2 == 0;
    params.odd_rate = seed % 5 == 0 ? 0.03 : 0.0;
    findings += check_day(params, labeler).findings;
  }
  EXPECT_GT(findings, 0u);
}

}  // namespace
}  // namespace dnsnoise::reference
