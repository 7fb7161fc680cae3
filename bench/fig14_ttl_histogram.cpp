// Fig. 14 — Time-to-live histogram of disposable domains, February vs
// December 2011.
//
// Paper: 0.8% of disposable domains used TTL 0 and 28% used TTL 1s in
// February; by December operators had moved to larger values, with the
// mode at 300s.  (Forcing TTL=0 is therefore not a deployable mitigation.)

#include "analytics/measurements.h"
#include "bench_common.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

namespace {

struct DateStats {
  double ttl0 = 0.0;
  double ttl1 = 0.0;
  double mode_lo = 0.0;
  double mode_hi = 0.0;
  std::uint64_t mode_count = 0;
};

DateStats run_date(ScenarioDate date) {
  DayCapture capture;
  default_session().simulate(date, capture);
  const Scenario scenario(date, default_scale());
  const auto is_disposable = [&scenario](const DomainName& name) {
    return scenario.truth().is_disposable_name(name);
  };

  const LogHistogram histogram =
      disposable_ttl_histogram(capture.chr(), is_disposable);
  std::printf("--- %s (disposable RRs: %s) ---\n",
              std::string(scenario_date_name(date)).c_str(),
              with_commas(histogram.total()).c_str());
  std::vector<std::pair<std::string, double>> bars;
  bars.emplace_back("ttl=0", static_cast<double>(histogram.zero_count()));
  DateStats stats;
  for (std::size_t bin = 0; bin < histogram.bins(); ++bin) {
    if (histogram.count(bin) == 0) continue;
    bars.emplace_back(
        fixed(histogram.bin_lo(bin), 0) + ".." +
            fixed(histogram.bin_hi(bin), 0),
        static_cast<double>(histogram.count(bin)));
    if (histogram.count(bin) > stats.mode_count) {
      stats.mode_count = histogram.count(bin);
      stats.mode_lo = histogram.bin_lo(bin);
      stats.mode_hi = histogram.bin_hi(bin);
    }
  }
  std::printf("%s\n", ascii_bars(bars, 46).c_str());

  const double total = static_cast<double>(histogram.total());
  stats.ttl0 =
      disposable_ttl_fraction_at_most(capture.chr(), is_disposable, 0);
  stats.ttl1 =
      disposable_ttl_fraction_at_most(capture.chr(), is_disposable, 1) -
      stats.ttl0;
  (void)total;
  return stats;
}

}  // namespace

int main() {
  print_header("Fig. 14", "TTL histogram of disposable RRs, Feb vs Dec 2011");

  const DateStats feb = run_date(ScenarioDate::kFeb01);
  const DateStats dec = run_date(ScenarioDate::kDec30);

  std::printf("February TTL policy:\n");
  print_claim("0.8% at TTL=0, 28% at TTL=1s",
              percent(feb.ttl0, 1) + " at TTL=0, " + percent(feb.ttl1, 1) +
                  " at TTL=1s");
  std::printf("\nDecember TTL policy:\n");
  print_claim("most disposable domains moved to TTL=300s (the mode)",
              "mode bin " + fixed(dec.mode_lo, 0) + ".." +
                  fixed(dec.mode_hi, 0) + "s with " +
                  with_commas(dec.mode_count) + " RRs; TTL<=1s down to " +
                  percent(dec.ttl0 + dec.ttl1, 1));
  return 0;
}
