// Quickstart: run the full disposable-zone mining pipeline on one simulated
// day of ISP traffic and print what it found.
//
//   synthetic ISP day -> sharded RDNS cluster -> monitoring tap
//     -> domain name tree + cache-hit-rate stats
//     -> LAD-tree classifier -> Algorithm 1 -> ranked disposable zones
//
// The day runs on the sharded engine (one shard per RDNS server, scheduled
// over 4 worker threads) — results are identical to a single-threaded run.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart

#include <cstdio>

#include "engine/parallel_miner.h"
#include "util/strings.h"
#include "util/table.h"

using namespace dnsnoise;

int main() {
  ScenarioScale scale;
  scale.queries_per_day = 150'000;
  scale.client_count = 8'000;

  std::printf("Simulating one day of ISP DNS traffic (%s, %s queries)...\n",
              std::string(scenario_date_name(ScenarioDate::kDec30)).c_str(),
              with_commas(scale.queries_per_day).c_str());

  const MiningDayResult result =
      MiningSession(scale).threads(4).run(ScenarioDate::kDec30);
  if (!result.ok()) {
    std::fprintf(stderr, "mining day failed: %s\n", result.error.c_str());
    return 1;
  }

  std::printf("\nTraining set: %zu labeled zones (%zu disposable)\n",
              result.labeled.size(),
              static_cast<std::size_t>(std::count_if(
                  result.labeled.begin(), result.labeled.end(),
                  [](const LabeledZone& z) { return z.label == 1; })));

  std::printf("\nTop mined disposable zones:\n");
  TextTable table({"zone", "depth", "confidence", "names"});
  for (std::size_t i = 0; i < std::min<std::size_t>(result.findings.size(), 12);
       ++i) {
    const DisposableZoneFinding& f = result.findings[i];
    table.add_row({f.zone, std::to_string(f.depth), fixed(f.confidence, 3),
                   with_commas(f.group_size)});
  }
  std::printf("%s", table.render().c_str());

  const MiningEvaluation& eval = result.evaluation;
  std::printf("\nMined %zu disposable zones under %zu unique 2LDs\n",
              eval.findings, eval.unique_2lds);
  std::printf("  vs ground truth: %zu true / %zu false findings "
              "(precision %s), %zu truth zones discovered\n",
              eval.true_positive_findings, eval.false_positive_findings,
              percent(eval.finding_precision()).c_str(),
              eval.truth_zones_discovered);

  const DayAggregates& agg = result.aggregates;
  std::printf("\nDisposable share of the day (by mined zones):\n");
  std::printf("  queried domains:  %s of %s\n",
              percent(static_cast<double>(agg.disposable_queried) /
                      static_cast<double>(agg.unique_queried)).c_str(),
              with_commas(agg.unique_queried).c_str());
  std::printf("  resolved domains: %s of %s\n",
              percent(static_cast<double>(agg.disposable_resolved) /
                      static_cast<double>(agg.unique_resolved)).c_str(),
              with_commas(agg.unique_resolved).c_str());
  std::printf("  distinct RRs:     %s of %s\n",
              percent(static_cast<double>(agg.disposable_rrs) /
                      static_cast<double>(agg.unique_rrs)).c_str(),
              with_commas(agg.unique_rrs).c_str());
  return 0;
}
