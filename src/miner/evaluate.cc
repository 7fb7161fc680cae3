#include "miner/evaluate.h"

namespace dnsnoise {

FindingIndex::FindingIndex(std::span<const DisposableZoneFinding> findings) {
  for (const DisposableZoneFinding& finding : findings) {
    rules_[finding.zone].insert(finding.depth);
    ++count_;
  }
}

bool FindingIndex::is_disposable(const DomainName& name) const {
  const std::size_t depth = name.label_count();
  if (depth < 2) return false;
  for (std::size_t k = depth - 1; k >= 1; --k) {
    const auto it = rules_.find(name.nld_view(k));
    if (it != rules_.end() && it->second.contains(depth)) return true;
  }
  return false;
}

MiningEvaluation evaluate_findings(
    std::span<const DisposableZoneFinding> findings, const GroundTruth& truth,
    const PublicSuffixList& psl) {
  MiningEvaluation eval;
  eval.findings = findings.size();

  std::unordered_set<std::string> unique_2lds;
  std::unordered_set<std::string> discovered;
  std::unordered_map<std::string, std::string> archetype_of;
  for (const DisposableZoneFinding& finding : findings) {
    const auto zone = DomainName::parse(finding.zone);
    if (zone) {
      const DomainName registrable = psl.registrable_domain(*zone);
      unique_2lds.insert(registrable.empty() ? finding.zone
                                             : registrable.text());
    }
    bool matched = false;
    for (const GroundTruth::ZoneInfo& info : truth.disposable_zones) {
      if (info.name_depth != finding.depth) continue;
      const auto apex = DomainName::parse(info.apex);
      if (!apex || !zone) continue;
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
