// §VI-B — DNSSEC-enabled resolver cost.
//
// Paper: "Once DNSSEC is widely deployed ... eventually every domain name
// under a zone needs to be signed"; each queried disposable domain then
// requires an additional signature validation whose result is never
// reused, plus cache space for RRSIG/DNSKEY/DS records.  We report two
// views: today's partial deployment (only the zones flagged signed) and
// the paper's universal-deployment what-if (every answered cache miss
// costs one validation), with a published-constants cost model.

#include "bench_common.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

namespace {

// Cost model constants: one RSA-1024 verify ~ 70us of 2011-era server CPU;
// an RRSIG adds ~150 wire bytes per cached record.
constexpr double kVerifyMicros = 70.0;
constexpr double kRrsigBytes = 150.0;

struct RunResult {
  std::uint64_t partial_validations = 0;
  std::uint64_t partial_disposable = 0;
  std::uint64_t full_validations = 0;   // universal deployment
  std::uint64_t full_disposable = 0;
};

RunResult run(ScenarioDate date, double disposable_multiplier) {
  ScenarioScale scale = default_scale(250'000);
  scale.disposable_traffic_multiplier = disposable_multiplier;
  DayCapture capture;
  const ShardCounters counters = default_session()
                                     .scale(scale)
                                     .warmup(false)
                                     .simulate(date, capture)
                                     .counters;
  return {counters.dnssec_validations,
          counters.dnssec_disposable_validations, counters.answered_misses,
          counters.disposable_answered_misses};
}

}  // namespace

int main() {
  print_header("Sec. VI-B",
               "DNSSEC validating-resolver cost of disposable load");

  TextTable table({"date", "deployment", "validations/day",
                   "disposable_caused", "share", "wasted_cpu_s",
                   "wasted_cache_MB"});
  double feb_share = 0.0;
  double dec_share = 0.0;
  for (const ScenarioDate date : {ScenarioDate::kFeb01, ScenarioDate::kNov14,
                                  ScenarioDate::kDec30}) {
    const RunResult r = run(date, 1.0);
    const double partial_share =
        static_cast<double>(r.partial_disposable) /
        static_cast<double>(r.partial_validations);
    const double full_share = static_cast<double>(r.full_disposable) /
                              static_cast<double>(r.full_validations);
    table.add_row({std::string(scenario_date_name(date)), "partial(2011)",
                   with_commas(r.partial_validations),
                   with_commas(r.partial_disposable), percent(partial_share, 1),
                   fixed(static_cast<double>(r.partial_disposable) *
                             kVerifyMicros / 1e6,
                         2),
                   fixed(static_cast<double>(r.partial_disposable) *
                             kRrsigBytes / 1e6,
                         2)});
    table.add_row({std::string(scenario_date_name(date)), "universal",
                   with_commas(r.full_validations),
                   with_commas(r.full_disposable), percent(full_share, 1),
                   fixed(static_cast<double>(r.full_disposable) *
                             kVerifyMicros / 1e6,
                         2),
                   fixed(static_cast<double>(r.full_disposable) *
                             kRrsigBytes / 1e6,
                         2)});
    if (date == ScenarioDate::kFeb01) feb_share = full_share;
    if (date == ScenarioDate::kDec30) dec_share = full_share;
  }
  std::printf("%s\n", table.render().c_str());

  const RunResult baseline = run(ScenarioDate::kDec30, 0.0);
  const RunResult with = run(ScenarioDate::kDec30, 1.0);
  std::printf("Universal-deployment validation inflation (Dec, on vs off):\n");
  print_claim(
      "each queried disposable domain may require an additional "
      "signature validation whose result is never reused",
      with_commas(with.full_validations) + " vs " +
          with_commas(baseline.full_validations) + " validations/day (" +
          fixed(static_cast<double>(with.full_validations) /
                    static_cast<double>(baseline.full_validations),
                2) +
          "x); every disposable validation (" +
          with_commas(with.full_disposable) + ") is single-use");
  std::printf("\nPressure grows with disposable adoption:\n");
  print_claim("disposable domains will naturally increase this pressure",
              "disposable share of validations " + percent(feb_share, 1) +
                  " (Feb) -> " + percent(dec_share, 1) + " (Dec)");
  std::printf(
      "\nMitigation (paper): serve disposable zones from a single signed "
      "wildcard so one RRSIG covers the whole group.\n");
  return 0;
}
