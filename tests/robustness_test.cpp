// Failure-injection robustness: the monitoring tap in a production ISP
// loses packets.  The miner's CHR accounting is computed from the tap, so
// packet loss perturbs every feature — these tests verify the pipeline
// degrades gracefully rather than collapsing.
#include <gtest/gtest.h>

#include "engine/parallel_miner.h"
#include "ml/lad_tree.h"
#include "util/rng.h"

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

/// Simulates a day while dropping a fraction of tap events (independently
/// per direction), as a lossy SPAN port would.
void simulate_lossy_day(Scenario& scenario, DayCapture& capture,
                        std::int64_t day, double loss, std::uint64_t seed) {
  RdnsCluster cluster(ClusterConfig{}, scenario.authority());
  Rng drop_rng(seed);
  std::vector<TapEvent> kept;
  std::vector<CompactRecord> kept_answers;
  FunctionTapObserver lossy_tap([&](const TapBatch& batch) {
    kept.clear();
    kept_answers.clear();
    for (const TapEvent& event : batch) {
      if (drop_rng.chance(loss)) continue;
      const auto answers = batch.answers(event);
      TapEvent& copy = kept.emplace_back(event);
      copy.answer_offset = static_cast<std::uint32_t>(kept_answers.size());
      kept_answers.insert(kept_answers.end(), answers.begin(), answers.end());
    }
    capture.on_tap_batch(TapBatch(kept, kept_answers, batch.names()));
  });
  cluster.add_tap_observer(&lossy_tap);
  scenario.traffic().run_day_shard(
      day, {},
      [&cluster](SimTime ts, std::uint64_t client, const QuerySpec& query) {
        cluster.query_view(client, {DomainName(query.qname), query.qtype}, ts);
      });
  cluster.flush_taps();
  cluster.remove_tap_observer(&lossy_tap);
}

class TapLossTest : public ::testing::TestWithParam<double> {};

TEST_P(TapLossTest, MinerSurvivesPacketLoss) {
  const double loss = GetParam();

  // Train on a clean day (the analyst labels from a reliable collection),
  // then mine a lossy day.
  DayCapture train_capture;
  ASSERT_TRUE(MiningSession(small_scale())
                  .simulate(ScenarioDate::kNov14, train_capture)
                  .ok());
  const Scenario train_scenario(ScenarioDate::kNov14, small_scale());
  LadTree model;
  model.train(to_dataset(label_zones(train_capture.tree(),
                                     train_capture.chr(), train_scenario,
                                     small_labeler())));

  ScenarioScale lossy_scale = small_scale();
  lossy_scale.traffic_stream = 99;
  Scenario lossy_scenario(ScenarioDate::kDec30, lossy_scale);
  DayCapture lossy_capture;
  simulate_lossy_day(lossy_scenario, lossy_capture,
                     scenario_day_index(ScenarioDate::kDec30), loss, 7);

  const DisposableZoneMiner miner(model);
  const auto findings =
      miner.mine(lossy_capture.tree(), lossy_capture.chr());
  const MiningEvaluation eval =
      evaluate_findings(findings, lossy_scenario.truth());

  // Losing up to 30% of tap packets must not collapse discovery or flood
  // the output with false positives.
  EXPECT_GT(eval.findings, 15u) << "loss " << loss;
  EXPECT_GT(eval.finding_precision(), 0.85) << "loss " << loss;
}

INSTANTIATE_TEST_SUITE_P(LossRates, TapLossTest,
                         ::testing::Values(0.0, 0.1, 0.3));

TEST(ArchetypeBreakdownTest, DiscoveredZonesSpanTheTaxonomy) {
  MiningSession session(small_scale());
  session.labeler(small_labeler());
  const MiningDayResult result = session.run(ScenarioDate::kDec30);
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& by_archetype = result.evaluation.discovered_by_archetype;
  // The five industries of the synthetic zoo are all represented.
  std::size_t total = 0;
  for (const auto& [archetype, count] : by_archetype) total += count;
  EXPECT_EQ(total, result.evaluation.truth_zones_discovered);
  EXPECT_GE(by_archetype.size(), 4u);  // at least 4 of 5-6 archetypes
  EXPECT_TRUE(by_archetype.contains("experiment"));  // the flagship
}

}  // namespace
}  // namespace dnsnoise
