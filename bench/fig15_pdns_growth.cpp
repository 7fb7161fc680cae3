// Fig. 15 — Passive-DNS database bootstrap over 13 days.
//
// Paper: after 13 days of resolution traffic, 88% of all unique RRs in the
// pDNS-DB are disposable, and the share of *new* daily RRs that are
// disposable grows from 68% to 94% as the non-disposable namespace gets
// exhausted.  New daily non-disposable domains dropped from 13M to 1.6M
// while disposable stayed at 5-7M.

#include "bench_common.h"
#include "pdns/rpdns.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

int main() {
  print_header("Fig. 15", "pDNS-DB bootstrap: new RRs per day by class");

  MiningSession session = default_session(200'000);
  session.warmup(false);

  RpDnsDataset rpdns;
  std::uint64_t disposable_total = 0;
  struct DayCounts {
    std::uint64_t disposable = 0;
    std::uint64_t nondisposable = 0;
  };
  std::vector<DayCounts> per_day;

  for (int day = 0; day < 13; ++day) {
    ScenarioScale scale = default_scale(200'000);
    scale.traffic_stream = static_cast<std::uint64_t>(day);
    scale.flagship_boost = 0.85 + 0.30 * static_cast<double>(day) / 12.0;
    DayCapture capture;
    session.scale(scale).simulate(ScenarioDate::kDec30, capture, day);
    const Scenario scenario(ScenarioDate::kDec30, scale);

    DayCounts counts;
    for (const auto& [key, rr_counts] : capture.chr().entries()) {
      if (!rpdns.add(to_rr_key(key, capture.names()), day)) continue;
      const auto name = DomainName::parse(capture.names().name(key.owner));
      if (name && scenario.truth().is_disposable_name(*name)) {
        ++counts.disposable;
        ++disposable_total;
      } else {
        ++counts.nondisposable;
      }
    }
    per_day.push_back(counts);
  }

  TextTable table({"day", "new_disposable", "new_nondisposable",
                   "disposable_share_of_new"});
  for (std::size_t day = 0; day < per_day.size(); ++day) {
    const DayCounts& counts = per_day[day];
    table.add_row(
        {std::to_string(day + 1), with_commas(counts.disposable),
         with_commas(counts.nondisposable),
         percent(static_cast<double>(counts.disposable) /
                 static_cast<double>(counts.disposable +
                                     counts.nondisposable))});
  }
  std::printf("%s\n", table.render().c_str());

  const double db_share = static_cast<double>(disposable_total) /
                          static_cast<double>(rpdns.unique_records());
  const DayCounts& first = per_day.front();
  const DayCounts& last = per_day.back();

  std::printf("Database composition after 13 days (%s unique RRs):\n",
              with_commas(rpdns.unique_records()).c_str());
  print_claim("88% of all unique RRs are disposable", percent(db_share, 1));
  std::printf("\nDisposable share of daily new RRs:\n");
  print_claim("68% on day 1 -> 94% on day 13",
              percent(static_cast<double>(first.disposable) /
                      static_cast<double>(first.disposable +
                                          first.nondisposable)) +
                  " -> " +
                  percent(static_cast<double>(last.disposable) /
                          static_cast<double>(last.disposable +
                                              last.nondisposable)));
  std::printf("\nNew non-disposable RRs, day 1 -> day 13:\n");
  print_claim("collapses (13M -> 1.6M in the paper)",
              with_commas(first.nondisposable) + " -> " +
                  with_commas(last.nondisposable));
  return 0;
}
