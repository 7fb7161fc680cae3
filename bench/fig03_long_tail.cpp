// Fig. 3 — The DNS long tail.
//
// (a) Lookup-volume distribution: sorted per-RR daily lookup counts; the
//     paper finds >90% of RRs receive fewer than 10 lookups/day, growing
//     from 90% (Feb) to 94% (Dec 2011).
// (b) Domain-hit-rate CDF: 89% of RRs have zero DHR in February, 93% by
//     December.

#include "analytics/measurements.h"
#include "bench_common.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

namespace {

void run_date(ScenarioDate date, double& tail_fraction, double& zero_dhr) {
  DayCapture capture;
  default_session().simulate(date, capture);

  std::printf("--- %s ---\n", std::string(scenario_date_name(date)).c_str());

  // Fig. 3a: the sorted lookup-volume series, sampled at log-spaced ranks.
  const auto volumes = sorted_lookup_volumes(capture.chr());
  TextTable table({"rank", "lookups/day"});
  for (std::size_t rank = 1; rank < volumes.size(); rank *= 4) {
    table.add_row({with_commas(rank), with_commas(volumes[rank - 1])});
  }
  table.add_row({with_commas(volumes.size()), with_commas(volumes.back())});
  std::printf("%s\n", table.render().c_str());

  tail_fraction = lookup_tail_fraction(capture.chr(), 10);
  zero_dhr = zero_dhr_fraction(capture.chr());

  // Fig. 3b: DHR CDF, printed at decile resolution.
  const auto cdf = dhr_cdf(capture.chr(), 11);
  TextTable cdf_table({"dhr", "CDF"});
  for (const CdfPoint& point : cdf) {
    cdf_table.add_row({fixed(point.x, 2), fixed(point.f, 4)});
  }
  std::printf("%s\n", cdf_table.render().c_str());
}

}  // namespace

int main() {
  print_header("Fig. 3", "lookup-volume long tail and domain-hit-rate CDF");

  double feb_tail = 0.0;
  double feb_zero = 0.0;
  double dec_tail = 0.0;
  double dec_zero = 0.0;
  run_date(ScenarioDate::kFeb01, feb_tail, feb_zero);
  run_date(ScenarioDate::kDec30, dec_tail, dec_zero);

  std::printf("Fig. 3a headline (RRs with < 10 lookups/day):\n");
  print_claim("90.09% (02/01) growing to ~94% (late 2011)",
              percent(feb_tail, 2) + " (02/01) -> " + percent(dec_tail, 2) +
                  " (12/30)");
  std::printf("\nFig. 3b headline (RRs with zero domain hit rate):\n");
  print_claim("89% (02/01) growing to 93% (late 2011)",
              percent(feb_zero, 2) + " (02/01) -> " + percent(dec_zero, 2) +
                  " (12/30)");
  return 0;
}
