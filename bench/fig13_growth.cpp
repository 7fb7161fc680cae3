// Fig. 13 — Growth of disposable zones across the six 2011 dates.
//
// Paper: the disposable share of daily unique *queried* domains grew from
// 23.1% to 27.6%, of *resolved* domains from 27.6% to 37.2%, and of daily
// distinct RRs from 38.3% to 65.5%.  Shares here are measured the same way
// the paper measured them: by attributing names to the zones the miner
// itself discovered that day.

#include "bench_common.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

int main() {
  print_header("Fig. 13", "growth of disposable zones over 2011");

  // The paper's protocol: one classifier, trained from the hand-labeled
  // zones of one day, applied across the whole 2011 campaign.
  const LadTree model = train_reference_model();
  MiningSession session = default_session(150'000);
  session.pretrained(&model);

  TextTable table({"date", "queried", "resolved", "RRs", "zones_found",
                   "precision"});
  double first_queried = 0.0;
  double last_queried = 0.0;
  double first_resolved = 0.0;
  double last_resolved = 0.0;
  double first_rrs = 0.0;
  double last_rrs = 0.0;

  for (const ScenarioDate date : kAllScenarioDates) {
    const MiningDayResult result = session.run(date);
    const DayAggregates& agg = result.aggregates;
    const double queried = static_cast<double>(agg.disposable_queried) /
                           static_cast<double>(agg.unique_queried);
    const double resolved = static_cast<double>(agg.disposable_resolved) /
                            static_cast<double>(agg.unique_resolved);
    const double rrs = static_cast<double>(agg.disposable_rrs) /
                       static_cast<double>(agg.unique_rrs);
    table.add_row({std::string(scenario_date_name(date)), percent(queried),
                   percent(resolved), percent(rrs),
                   with_commas(result.evaluation.findings),
                   percent(result.evaluation.finding_precision())});
    if (date == ScenarioDate::kFeb01) {
      first_queried = queried;
      first_resolved = resolved;
      first_rrs = rrs;
    }
    if (date == ScenarioDate::kDec30) {
      last_queried = queried;
      last_resolved = resolved;
      last_rrs = rrs;
    }
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("Disposable share of daily unique queried domains:\n");
  print_claim("23.1% -> 27.6%",
              percent(first_queried) + " -> " + percent(last_queried));
  std::printf("\nDisposable share of daily unique resolved domains:\n");
  print_claim("27.6% -> 37.2%",
              percent(first_resolved) + " -> " + percent(last_resolved));
  std::printf("\nDisposable share of daily distinct RRs:\n");
  print_claim("38.3% -> 65.5%",
              percent(first_rrs) + " -> " + percent(last_rrs));
  return 0;
}
