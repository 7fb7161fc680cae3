// §II-B — the two related-work analyses the paper positions itself against.
//
// Treetop taxonomy (Plonka & Barford): disposable traffic is a *superclass*
// of the "overloaded" category — DNS used as a signaling channel rather
// than a name->IP mapping.
//
// Covert-channel bound (Paxson et al.): a per-(client, destination)
// 4 kB/day information bound catches bulk tunnels but, as the paper notes,
// "disposable domains can be stealthy and stay under this threshold.
// Nevertheless, we can identify them collectively from the view of the
// entire disposable zone."  We measure both sides of that sentence.

#include "analytics/related_work.h"
#include "bench_common.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

int main() {
  print_header("Sec. II-B", "treetop taxonomy and the covert-channel bound");

  DayCaptureConfig capture_config;
  capture_config.keep_fpdns = true;
  DayCapture capture(capture_config);
  default_session(250'000)
      .capture_config(capture_config)
      .simulate(ScenarioDate::kDec30, capture);
  const Scenario scenario(ScenarioDate::kDec30, default_scale(250'000));

  const auto is_disposable = [&scenario](const DomainName& name) {
    return scenario.truth().is_disposable_name(name);
  };

  // --- Treetop taxonomy.
  const TrafficTaxonomy taxonomy =
      classify_taxonomy(capture.fpdns(), is_disposable);
  TextTable taxonomy_table({"category", "responses", "share"});
  const auto total = static_cast<double>(taxonomy.total());
  taxonomy_table.add_row({"canonical", with_commas(taxonomy.canonical),
                          percent(static_cast<double>(taxonomy.canonical) /
                                  total)});
  taxonomy_table.add_row({"overloaded (disposable)",
                          with_commas(taxonomy.overloaded),
                          percent(static_cast<double>(taxonomy.overloaded) /
                                  total)});
  taxonomy_table.add_row({"unwanted (NXDOMAIN)",
                          with_commas(taxonomy.unwanted),
                          percent(static_cast<double>(taxonomy.unwanted) /
                                  total)});
  std::printf("%s\n", taxonomy_table.render().c_str());
  print_claim(
      "disposable domains are more general than treetop's overloaded "
      "class and distinct from unwanted traffic",
      "overloaded share " +
          percent(static_cast<double>(taxonomy.overloaded) / total) +
          " of below responses, disjoint from the " +
          percent(static_cast<double>(taxonomy.unwanted) / total) +
          " NXDOMAIN class");

  // --- Covert-channel bound.
  const CovertChannelStudy study = covert_channel_study(
      capture.fpdns(), [&scenario](const DomainName& name) -> std::string {
        for (std::size_t k = name.label_count(); k >= 2; --k) {
          std::string zone(name.nld_view(k));
          if (scenario.truth().disposable_apexes.contains(zone)) return zone;
        }
        return {};
      });

  std::printf("\nPer-(client, disposable zone) daily name-byte volumes:\n");
  TextTable volumes({"rank", "bytes/day"});
  for (std::size_t rank = 1; rank <= study.per_client_zone_bytes.size();
       rank *= 8) {
    volumes.add_row({with_commas(rank),
                     with_commas(study.per_client_zone_bytes[rank - 1])});
  }
  std::printf("%s\n", volumes.render().c_str());

  print_claim(
      "disposable senders can stay under the 4 kB/day per-client bound",
      percent(study.under_threshold_fraction, 1) + " of " +
          with_commas(study.per_client_zone_bytes.size()) +
          " (client, zone) channels are under the bound");
  std::printf("\n");
  print_claim(
      "yet the zone's *collective* footprint is unmistakable (the miner's "
      "whole-zone view)",
      "busiest disposable zone carries " +
          with_commas(study.busiest_zone_bytes) +
          " name-bytes/day across all clients (" +
          fixed(static_cast<double>(study.busiest_zone_bytes) /
                    static_cast<double>(study.threshold),
                1) +
          "x the per-client bound)");
  return 0;
}
