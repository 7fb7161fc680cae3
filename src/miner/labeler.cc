#include "miner/labeler.h"

#include "util/rng.h"

namespace dnsnoise {

namespace {

/// Features of the group at `depth` under `apex`, if it exists and is
/// large enough.
bool group_features_at(const DomainNameTree& tree,
                       const CacheHitRateTracker& chr, const DomainName& apex,
                       std::size_t depth, std::size_t min_size,
                       ZoneScratch& scratch, GroupFeatures& out) {
  const NameId node = tree.find(apex);
  if (node == kInvalidNameId) return false;
  tree.black_descendants_by_depth(node, scratch.groups);
  const std::span<const NameId> group = scratch.groups.at(depth);
  if (group.empty() || group.size() < min_size) return false;
  out = compute_group_features(tree, group, tree.depth(node), chr,
                               scratch.features);
  return true;
}

/// A candidate zone's group: its depth, and its features when it is large
/// enough.
struct Candidate {
  bool found = false;
  std::size_t depth = 0;
  GroupFeatures features;
};

}  // namespace

std::vector<LabeledZone> label_zones(const DomainNameTree& tree,
                                     const CacheHitRateTracker& chr,
                                     const Scenario& scenario,
                                     const LabelerConfig& config,
                                     const ParallelFor& parallel_for) {
  const std::vector<GroundTruth::ZoneInfo>& truth =
      scenario.truth().disposable_zones;
  const std::vector<std::string>& popular = scenario.popular_apexes();
  // A smaller minimum applies to the popular zones — they have tens, not
  // thousands, of hostnames.
  const std::size_t popular_min = 3;

  // Every candidate group's features first, each independent of the
  // others; the accept-and-draw loops below stay serial and in order.
  std::vector<Candidate> positives(truth.size());
  std::vector<Candidate> negatives(popular.size());
  run_parallel(parallel_for, truth.size() + popular.size(), [&](std::size_t i) {
    const ZoneScratchLease scratch;
    DomainName& apex = scratch->zone;
    if (i < truth.size()) {
      Candidate& zone = positives[i];
      zone.depth = truth[i].name_depth;
      zone.found = apex.assign(truth[i].apex) &&
                   group_features_at(tree, chr, apex, zone.depth,
                                     config.min_group_size, *scratch,
                                     zone.features);
      return;
    }
    Candidate& zone = negatives[i - truth.size()];
    if (!apex.assign(popular[i - truth.size()])) return;
    zone.depth = apex.label_count() + 1;
    zone.found = group_features_at(tree, chr, apex, zone.depth, popular_min,
                                   *scratch, zone.features);
  });

  Rng rng(config.seed);
  std::vector<LabeledZone> out;

  // Disposable class: truth zones at their generation depth, in traffic-
  // weight order (the analyst labels the zones they see the most of).
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (out.size() >= config.disposable_zones) break;
    if (!positives[i].found) continue;
    LabeledZone zone;
    zone.zone = truth[i].apex;
    zone.depth = positives[i].depth;
    zone.label = rng.chance(config.label_noise) ? 0 : 1;
    zone.features = positives[i].features;
    out.push_back(std::move(zone));
  }

  // Non-disposable class: the popular zones' hostname groups (one label
  // below the apex).
  std::size_t labeled_negatives = 0;
  for (std::size_t j = 0; j < popular.size(); ++j) {
    if (labeled_negatives >= config.nondisposable_zones) break;
    if (!negatives[j].found) continue;
    LabeledZone zone;
    zone.zone = popular[j];
    zone.depth = negatives[j].depth;
    zone.label = rng.chance(config.label_noise) ? 1 : 0;
    zone.features = negatives[j].features;
    out.push_back(std::move(zone));
    ++labeled_negatives;
  }
  return out;
}

Dataset to_dataset(const std::vector<LabeledZone>& zones) {
  Dataset data(kFeatureCount);
  for (const LabeledZone& zone : zones) {
    const auto features = zone.features.as_array();
    data.add(features, zone.label);
  }
  return data;
}

}  // namespace dnsnoise
