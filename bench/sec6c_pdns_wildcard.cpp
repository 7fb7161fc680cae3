// §VI-C — Passive-DNS database storage and wildcard aggregation.
//
// Paper: disposable domains dominate pDNS-DB growth; replacing each
// disposable name with a wildcard under its mined zone collapsed
// 129,674,213 distinct disposable RRs to 945,065 (0.7%).  We bootstrap two
// databases over 6 days — raw and wildcard-folding (rules = the miner's
// findings) — and compare record counts and storage bytes.


#include "bench_common.h"
#include "pdns/pdns_db.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

int main() {
  print_header("Sec. VI-C", "pDNS-DB wildcard aggregation of disposable RRs");

  MiningSession session = default_session(200'000);
  session.warmup(false);

  // Mine the folding rules once on day 1, then bootstrap both databases
  // over 6 days of traffic.
  PassiveDnsDb raw(/*wildcard_folding=*/false);
  PassiveDnsDb folded(/*wildcard_folding=*/true);

  for (int day = 0; day < 6; ++day) {
    ScenarioScale scale = default_scale(200'000);
    scale.traffic_stream = static_cast<std::uint64_t>(day);
    session.scale(scale);
    DayCapture capture;
    if (day == 0) {
      const MiningDayResult result = session.run(
          ScenarioDate::kDec30, capture,
          scenario_day_index(ScenarioDate::kDec30));
      for (const auto& finding : result.findings) {
        raw.add_rule({finding.zone, finding.depth});
        folded.add_rule({finding.zone, finding.depth});
      }
      std::printf("Mined %zu disposable (zone, depth) rules on day 1.\n\n",
                  result.findings.size());
    } else {
      session.simulate(ScenarioDate::kDec30, capture, day);
    }
    for (const auto& [rr, counts] : capture.chr().entries()) {
      const RRKey key = to_rr_key(rr, capture.names());
      const auto name = DomainName::parse(key.name);
      if (!name) continue;
      raw.add(*name, key.type, key.rdata, day);
      folded.add(*name, key.type, key.rdata, day);
    }
  }

  // Disposable-record counts in each database.
  std::uint64_t raw_disposable = 0;
  raw.store().for_each([&](const RRKey& key, const RpDnsRecord&) {
    const auto name = DomainName::parse(key.name);
    if (name && raw.matches_rule(*name)) ++raw_disposable;
  });
  std::uint64_t folded_wildcards = 0;
  folded.store().for_each([&](const RRKey& key, const RpDnsRecord&) {
    if (!key.name.empty() && key.name.front() == '*') ++folded_wildcards;
  });

  TextTable table({"database", "unique_RRs", "disposable_RRs",
                   "storage_bytes", "folded_additions"});
  table.add_row({"raw", with_commas(raw.unique_records()),
                 with_commas(raw_disposable), with_commas(raw.storage_bytes()),
                 "-"});
  table.add_row({"wildcard-folding", with_commas(folded.unique_records()),
                 with_commas(folded_wildcards),
                 with_commas(folded.storage_bytes()),
                 with_commas(folded.folded_additions())});
  std::printf("%s\n", table.render().c_str());

  const double disposable_kept =
      raw_disposable == 0
          ? 0.0
          : static_cast<double>(folded_wildcards) /
                static_cast<double>(raw_disposable);
  std::printf("Disposable-record reduction under wildcard storage:\n");
  print_claim("129,674,213 -> 945,065 distinct records kept (0.7%)",
              with_commas(raw_disposable) + " -> " +
                  with_commas(folded_wildcards) + " (" +
                  percent(disposable_kept, 2) + " kept)");
  std::printf("\nWhole-database effect:\n");
  print_claim("pDNS-DB storage growth is dominated by disposable RRs",
              "unique RRs " + with_commas(raw.unique_records()) + " -> " +
                  with_commas(folded.unique_records()) + "; storage bytes " +
                  with_commas(raw.storage_bytes()) + " -> " +
                  with_commas(folded.storage_bytes()));
  return 0;
}
