#include "miner/evaluate.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

namespace dnsnoise {

FindingCover::FindingCover(const DomainNameTree& tree,
                           std::span<const DisposableZoneFinding> findings)
    : tree_(tree), decided_(tree.names().size(), 0) {
  for (const DisposableZoneFinding& finding : findings) {
    const NameId zone = tree.names().find(finding.zone);
    if (tree.is_name(zone)) rules_.emplace_back(zone, finding.depth);
  }
  std::sort(rules_.begin(), rules_.end());
}

bool FindingCover::covers(NameId id) {
  if (!tree_.is_name(id)) return false;
  if (decided_[id] == 0) {
    const std::size_t depth = tree_.depth(id);
    bool hit = false;
    for (NameId zone = tree_.parent(id);
         !hit && zone != kInvalidNameId && zone != tree_.root();
         zone = tree_.parent(zone)) {
      hit = std::binary_search(rules_.begin(), rules_.end(),
                               std::make_pair(zone, depth));
    }
    decided_[id] = hit ? 2 : 1;
  }
  return decided_[id] == 2;
}

std::size_t FindingCover::count(std::span<const NameId> ids) {
  std::size_t n = 0;
  for (const NameId id : ids) n += covers(id) ? 1 : 0;
  return n;
}

MiningEvaluation evaluate_findings(
    std::span<const DisposableZoneFinding> findings, const GroundTruth& truth,
    const PublicSuffixList& psl) {
  MiningEvaluation eval;
  eval.findings = findings.size();

  std::unordered_set<std::string> unique_2lds;
  std::unordered_set<std::string> discovered;
  std::unordered_map<std::string, std::string> archetype_of;
  std::vector<std::optional<DomainName>> apexes;
  apexes.reserve(truth.disposable_zones.size());
  for (const GroundTruth::ZoneInfo& info : truth.disposable_zones) {
    apexes.push_back(DomainName::parse(info.apex));
  }
  for (const DisposableZoneFinding& finding : findings) {
    const auto zone = DomainName::parse(finding.zone);
    if (zone) {
      const DomainName registrable = psl.registrable_domain(*zone);
      unique_2lds.insert(registrable.empty() ? finding.zone
                                             : registrable.text());
    }
    bool matched = false;
    for (std::size_t i = 0; i < apexes.size(); ++i) {
      const GroundTruth::ZoneInfo& info = truth.disposable_zones[i];
      const std::optional<DomainName>& apex = apexes[i];
      if (info.name_depth != finding.depth || !apex || !zone) continue;
      if (apex->is_within(*zone) || zone->is_within(*apex)) {
        matched = true;
        discovered.insert(info.apex);
        archetype_of[info.apex] = info.archetype;
      }
    }
    matched ? ++eval.true_positive_findings : ++eval.false_positive_findings;
  }
  eval.unique_2lds = unique_2lds.size();
  eval.truth_zones_discovered = discovered.size();
  for (const std::string& apex : discovered) {
    ++eval.discovered_by_archetype[archetype_of[apex]];
  }
  return eval;
}

}  // namespace dnsnoise
