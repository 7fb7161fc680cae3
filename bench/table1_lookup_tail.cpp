// Table I — Disposable RRs in the low-lookup-volume tail, per date.
//
// Columns (paper): size of the <10-lookup tail as a fraction of all RRs;
// the disposable share *of* that tail; and the fraction of all disposable
// RRs that live inside the tail.  Paper: the tail is 90-94% of RRs, its
// disposable share grows 28% -> 57%, and 96-98% of disposable RRs are in
// the tail.

#include "analytics/measurements.h"
#include "bench_common.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

int main() {
  print_header("Table I", "disposable RRs in the low-lookup-volume tail");

  const LadTree model = train_reference_model();
  MiningSession session = default_session(150'000);
  session.pretrained(&model);
  TextTable table({"date", "volume<10", "%_of_tail_disposable",
                   "%_disposable_in_tail"});
  double first_share = 0.0;
  double last_share = 0.0;
  for (const ScenarioDate date : kAllScenarioDates) {
    DayCapture capture;
    const MiningDayResult result =
        session.run(date, capture, scenario_day_index(date));
    FindingCover cover(capture.tree(), result.findings);
    const TailComposition row = lookup_tail_composition(
        capture.chr(),
        [&](const DomainName& name) {
          return cover.covers(capture.names().find(name.text()));
        },
        10);
    table.add_row({std::string(scenario_date_name(date)),
                   percent(row.tail_fraction, 2),
                   percent(row.disposable_share_of_tail, 2),
                   percent(row.disposable_inside_tail, 2)});
    if (date == ScenarioDate::kFeb01)
      first_share = row.disposable_share_of_tail;
    if (date == ScenarioDate::kDec30) last_share = row.disposable_share_of_tail;
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("Tail composition trend:\n");
  print_claim("disposable share of the tail grew 28.34% -> 57.17%",
              percent(first_share) + " -> " + percent(last_share));
  print_claim("96-98% of all disposable RRs sit inside the tail",
              "see last column above");
  return 0;
}
