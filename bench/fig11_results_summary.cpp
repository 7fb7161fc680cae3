// Fig. 11 — Table of measurement results summary.
//
// Paper: 97% TPR / 1% FPR classifier; 14,488 disposable zones under 12,397
// unique 2LDs discovered over the campaign; disposable share of queried
// domains 23.1%->27.6%, of resolved domains 27.6%->37.2%, of RRs
// 38.3%->65.5%; used across many industries.  Absolute zone counts scale
// with traffic volume — our campaign is a scaled-down ISP (see DESIGN.md).

#include <map>
#include <set>

#include "bench_common.h"
#include "ml/eval.h"
#include "ml/lad_tree.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

int main() {
  print_header("Fig. 11", "measurement results summary");

  const LadTree campaign_model = train_reference_model();
  MiningSession session = default_session(150'000);
  session.pretrained(&campaign_model);

  // Classifier accuracy via 10-fold CV on the Nov-14 labeled set.
  {
    LabelerConfig labeler;
    labeler.min_group_size = 10;
    // The paper's 398/401 zones were labeled by hand; a small labeling-
    // error rate keeps the CV numbers realistic rather than perfect.
    labeler.label_noise = 0.03;
    DayCapture capture;
    default_session().simulate(ScenarioDate::kNov14, capture);
    const Scenario scenario(ScenarioDate::kNov14, default_scale());
    const Dataset data = to_dataset(
        label_zones(capture.tree(), capture.chr(), scenario, labeler));
    const auto scores = cross_val_scores(
        data, [] { return std::make_unique<LadTree>(); }, 10, 2011);
    std::vector<int> labels;
    for (std::size_t i = 0; i < data.size(); ++i) {
      labels.push_back(data.label(i));
    }
    const Confusion c = confusion_at(scores, labels, 0.5);
    std::printf("Classifier accuracy (10-fold CV, theta=0.5):\n");
    print_claim("97% true positive rate, 1% false positive rate",
                percent(c.tpr(), 1) + " TPR, " + percent(c.fpr(), 1) + " FPR");
  }

  // Mining campaign over all six dates.
  std::set<std::string> zones;
  std::set<std::string> zone_2lds;
  std::map<std::string, std::size_t> industries;
  double first_q = 0.0;
  double last_q = 0.0;
  double first_r = 0.0;
  double last_r = 0.0;
  double first_rr = 0.0;
  double last_rr = 0.0;
  for (const ScenarioDate date : kAllScenarioDates) {
    const MiningDayResult result = session.run(date);
    const auto& psl = PublicSuffixList::builtin();
    for (const auto& finding : result.findings) {
      zones.insert(finding.zone + "#" + std::to_string(finding.depth));
      const auto zone = DomainName::parse(finding.zone);
      if (zone) {
        const DomainName registrable = psl.registrable_domain(*zone);
        zone_2lds.insert(registrable.empty() ? finding.zone
                                             : registrable.text());
      }
    }
    for (const auto& [archetype, count] :
         result.evaluation.discovered_by_archetype) {
      industries[archetype] += count;
    }
    const DayAggregates& agg = result.aggregates;
    const double q = static_cast<double>(agg.disposable_queried) /
                     static_cast<double>(agg.unique_queried);
    const double r = static_cast<double>(agg.disposable_resolved) /
                     static_cast<double>(agg.unique_resolved);
    const double rr = static_cast<double>(agg.disposable_rrs) /
                      static_cast<double>(agg.unique_rrs);
    if (date == ScenarioDate::kFeb01) {
      first_q = q;
      first_r = r;
      first_rr = rr;
    }
    if (date == ScenarioDate::kDec30) {
      last_q = q;
      last_r = r;
      last_rr = rr;
    }
  }

  std::printf("\nDisposable zones discovered over the 6-date campaign:\n");
  print_claim("14,488 zones under 12,397 unique 2LDs (ISP volume)",
              with_commas(zones.size()) + " zones under " +
                  with_commas(zone_2lds.size()) +
                  " unique 2LDs (scaled volume)");
  std::printf("\n%% of disposable domains / queried domains:\n");
  print_claim("increased from 23.1% to 27.6%",
              percent(first_q) + " -> " + percent(last_q));
  std::printf("\n%% of disposable domains / resolved domains:\n");
  print_claim("increased from 27.6% to 37.2%",
              percent(first_r) + " -> " + percent(last_r));
  std::printf("\n%% of disposable RRs / all RRs:\n");
  print_claim("increased from 38.3% to 65.5%",
              percent(first_rr) + " -> " + percent(last_rr));
  std::printf("\nIndustries using disposable domains (discovered zones per\n"
              "archetype across the campaign; cf. the paper's examples "
              "row):\n");
  TextTable industries_table({"archetype", "zones_discovered"});
  for (const auto& [archetype, count] : industries) {
    industries_table.add_row({archetype, with_commas(count)});
  }
  std::printf("%s", industries_table.render().c_str());
  return 0;
}
