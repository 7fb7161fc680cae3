// Fig. 5 — Deduplicated new resource records per day (rpDNS bootstrap).
//
// The paper deduplicates 13 consecutive days (11/28–12/10/2011): overall
// new-RR volume drops ~30% by day 13 and Akamai's drops 69%, while Google
// *grows* its daily new RRs by 25% — its one-time names keep producing
// records, reaching 66% of daily new unique RRs.

#include "bench_common.h"
#include "pdns/rpdns.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

int main() {
  print_header("Fig. 5", "new deduplicated RRs per day over 13 days");

  MiningSession session = default_session(200'000);
  session.warmup(false);  // dedup counts below-tap answers only

  RpDnsDataset rpdns;
  struct DayCounts {
    std::uint64_t all = 0;
    std::uint64_t google = 0;
    std::uint64_t akamai = 0;
  };
  std::vector<DayCounts> per_day;

  for (int day = 0; day < 13; ++day) {
    ScenarioScale scale = default_scale(200'000);
    scale.traffic_stream = static_cast<std::uint64_t>(day);
    // The Google-style experiment ramps up within the window (the paper's
    // Google tenant *grew* while everything else declined).
    scale.flagship_boost = 0.85 + 0.30 * static_cast<double>(day) / 12.0;
    DayCapture capture;
    session.scale(scale).simulate(ScenarioDate::kDec30, capture, day);

    DayCounts counts;
    for (const auto& [key, rr_counts] : capture.chr().entries()) {
      if (!rpdns.add(to_rr_key(key, capture.names()), day)) continue;
      ++counts.all;
      const std::string_view name = capture.names().name(key.owner);
      if (Scenario::is_google_name(name)) ++counts.google;
      if (Scenario::is_akamai_name(name)) ++counts.akamai;
    }
    per_day.push_back(counts);
  }

  TextTable table({"day", "new_RRs", "new_google", "new_akamai",
                   "google_share_of_new"});
  for (std::size_t day = 0; day < per_day.size(); ++day) {
    const DayCounts& counts = per_day[day];
    table.add_row({std::to_string(day + 1), with_commas(counts.all),
                   with_commas(counts.google), with_commas(counts.akamai),
                   percent(static_cast<double>(counts.google) /
                           static_cast<double>(counts.all))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Total distinct RRs accumulated: %s\n\n",
              with_commas(rpdns.unique_records()).c_str());

  const DayCounts& first = per_day.front();
  const DayCounts& last = per_day.back();
  auto change = [](std::uint64_t from, std::uint64_t to) {
    return percent((static_cast<double>(to) - static_cast<double>(from)) /
                       static_cast<double>(from),
                   1);
  };
  std::printf("Overall new-RR volume, day 1 -> day 13:\n");
  print_claim("decreases ~30%", change(first.all, last.all));
  std::printf("\nAkamai new RRs, day 1 -> day 13:\n");
  print_claim("decreases sharply (-69%)", change(first.akamai, last.akamai));
  std::printf("\nGoogle new RRs, day 1 -> day 13:\n");
  print_claim("INCREASES (+25%): one-time names keep producing records",
              change(first.google, last.google));
  std::printf("\nGoogle's share of daily new unique RRs:\n");
  print_claim("37% on day 1 -> 66% on day 13",
              percent(static_cast<double>(first.google) /
                      static_cast<double>(first.all)) +
                  " -> " +
                  percent(static_cast<double>(last.google) /
                          static_cast<double>(last.all)));
  return 0;
}
