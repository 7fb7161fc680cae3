// Fig. 7 — Cache-hit-rate distributions of labeled disposable vs
// non-disposable zones.
//
// Paper: 90% of CHR samples from disposable RRs are zero, while 45% of the
// CHR samples from non-disposable (Alexa-style) RRs exceed 0.58.  This
// separation is the classification signal behind the CHR feature family.

#include <unordered_set>

#include "analytics/measurements.h"
#include "bench_common.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

int main() {
  print_header("Fig. 7",
               "CHR distribution: disposable vs non-disposable zones");

  // CHR contrast needs many queries per popular hostname; run a bigger day
  // on a 2-server cluster (the paper's per-name query volumes are ~100x
  // ours, so this narrows the scale gap for the hit-rate comparison).
  ClusterConfig cluster;
  cluster.server_count = 2;
  DayCapture capture;
  default_session(800'000).cluster(cluster).simulate(ScenarioDate::kNov14,
                                                     capture);
  const Scenario scenario(ScenarioDate::kNov14, default_scale(800'000));

  // The paper's negative class is the labeled Alexa-style zones, not the
  // rest of the traffic.
  std::unordered_set<std::string> popular(scenario.popular_apexes().begin(),
                                          scenario.popular_apexes().end());
  const LabeledChrStudy study = labeled_chr_study(
      capture.chr(),
      [&scenario](const DomainName& name) {
        return scenario.truth().is_disposable_name(name);
      },
      [&popular](const DomainName& name) {
        return name.label_count() >= 2 &&
               popular.contains(std::string(name.nld_view(2)));
      });

  TextTable table({"chr", "CDF_disposable", "CDF_nondisposable"});
  for (int i = 0; i <= 10; ++i) {
    const double x = static_cast<double>(i) / 10.0;
    table.add_row({fixed(x, 1), fixed(cdf_at(study.disposable_chr, x), 4),
                   fixed(cdf_at(study.nondisposable_chr, x), 4)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("Disposable zones:\n");
  print_claim("90% of cache hit rates are zero",
              percent(study.disposable_zero_fraction, 1) + " at zero (" +
                  with_commas(study.disposable_chr.size()) + " CHR samples)");
  std::printf("\nNon-disposable zones:\n");
  print_claim("45% of cache hit rates are over 0.58",
              percent(study.nondisposable_above_058_fraction, 1) +
                  " above 0.58 (" +
                  with_commas(study.nondisposable_chr.size()) +
                  " CHR samples)");
  return 0;
}
