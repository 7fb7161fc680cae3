// Fig. 4 — Cache-hit-rate distribution of all RRs.
//
// The paper's CHR distribution (every RR's DHR repeated once per cache
// miss) is an approximately linear, slightly skewed CDF; 58% of the CHR
// mass lies below 0.5 on 11/10/2011, and the multi-day aggregate keeps the
// same shape.

#include "analytics/measurements.h"
#include "bench_common.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

int main() {
  print_header("Fig. 4",
               "cache-hit-rate distribution (single day + aggregate)");

  MiningSession session = default_session();

  // (a) One day, 11/14 (our nearest scenario date to the paper's 11/10).
  DayCapture capture;
  session.simulate(ScenarioDate::kNov14, capture);
  const double below_half = chr_fraction_below(capture.chr(), 0.5);

  std::printf("--- CHR CDF, %s ---\n",
              std::string(scenario_date_name(ScenarioDate::kNov14)).c_str());
  TextTable table({"chr", "CDF"});
  for (const CdfPoint& point : chr_cdf(capture.chr(), 21)) {
    table.add_row({fixed(point.x, 2), fixed(point.f, 4)});
  }
  std::printf("%s\n", table.render().c_str());

  // (b) Aggregate across multiple dates (the paper used 13 days of 2011).
  std::printf("--- CHR CDF, multi-date aggregate ---\n");
  std::vector<double> aggregate;
  for (const ScenarioDate date :
       {ScenarioDate::kSep13, ScenarioDate::kNov14, ScenarioDate::kNov29}) {
    DayCapture day;
    session.simulate(date, day);
    const auto samples = day.chr().chr_distribution();
    aggregate.insert(aggregate.end(), samples.begin(), samples.end());
  }
  TextTable agg_table({"chr", "CDF"});
  for (const CdfPoint& point : empirical_cdf(aggregate, 21)) {
    agg_table.add_row({fixed(point.x, 2), fixed(point.f, 4)});
  }
  std::printf("%s\n", agg_table.render().c_str());
  const double agg_below_half = cdf_at(aggregate, 0.4999);

  std::printf("Fig. 4a headline:\n");
  print_claim("58% of cache hit rates are below 0.5 (11/10/2011)",
              percent(below_half, 1) + " below 0.5 (11/14 scenario)");
  std::printf("\nFig. 4b headline:\n");
  print_claim("the long-term distribution keeps the skewed-linear shape",
              percent(agg_below_half, 1) + " below 0.5 across 3 dates");
  return 0;
}
