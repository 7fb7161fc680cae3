#include "miner/labeler.h"

#include "util/rng.h"

namespace dnsnoise {

namespace {

/// Features of the group at `depth` under `zone_apex`, if it exists and is
/// large enough.
bool group_features_at(const DomainNameTree& tree,
                       const CacheHitRateTracker& chr,
                       const std::string& zone_apex, std::size_t depth,
                       std::size_t min_size, GroupFeatures& out) {
  const auto apex = DomainName::parse(zone_apex);
  if (!apex) return false;
  const NameId node = tree.find(*apex);
  if (node == kInvalidNameId) return false;
  const auto groups = tree.black_descendants_by_depth(node);
  const auto it = groups.find(depth);
  if (it == groups.end() || it->second.size() < min_size) return false;
  out = compute_group_features(tree, it->second, tree.depth(node), chr);
  return true;
}

}  // namespace

std::vector<LabeledZone> label_zones(const DomainNameTree& tree,
                                     const CacheHitRateTracker& chr,
                                     const Scenario& scenario,
                                     const LabelerConfig& config) {
  Rng rng(config.seed);
  std::vector<LabeledZone> out;

  // Disposable class: truth zones at their generation depth, in traffic-
  // weight order (the analyst labels the zones they see the most of).
  for (const GroundTruth::ZoneInfo& info :
       scenario.truth().disposable_zones) {
    if (out.size() >= config.disposable_zones) break;
    LabeledZone zone;
    if (!group_features_at(tree, chr, info.apex, info.name_depth,
                           config.min_group_size, zone.features)) {
      continue;
    }
    zone.zone = info.apex;
    zone.depth = info.name_depth;
    zone.label = rng.chance(config.label_noise) ? 0 : 1;
    out.push_back(std::move(zone));
  }

  // Non-disposable class: the popular zones' hostname groups (one label
  // below the apex).  A smaller minimum applies — popular zones have tens,
  // not thousands, of hostnames.
  const std::size_t popular_min = 3;
  std::size_t negatives = 0;
  for (const std::string& apex : scenario.popular_apexes()) {
    if (negatives >= config.nondisposable_zones) break;
    const auto apex_name = DomainName::parse(apex);
    if (!apex_name) continue;
    LabeledZone zone;
    if (!group_features_at(tree, chr, apex, apex_name->label_count() + 1,
                           popular_min, zone.features)) {
      continue;
    }
    zone.zone = apex;
    zone.depth = apex_name->label_count() + 1;
    zone.label = rng.chance(config.label_noise) ? 1 : 0;
    out.push_back(std::move(zone));
    ++negatives;
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
