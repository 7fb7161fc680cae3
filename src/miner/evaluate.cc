#include "miner/evaluate.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

namespace dnsnoise {

FindingCover::FindingCover(const DomainNameTree& tree,
                           std::span<const DisposableZoneFinding> findings,
                           const ParallelFor& parallel_for)
    : covered_(tree.names().size(), 0) {
  std::vector<std::pair<NameId, std::size_t>> rules;  // (zone, depth)
  for (const DisposableZoneFinding& finding : findings) {
    const NameId zone = tree.names().find(finding.zone);
    if (tree.is_name(zone)) rules.emplace_back(zone, finding.depth);
  }
  std::sort(rules.begin(), rules.end());
  // Few names are findings' zones: flag them, so most ancestor steps are
  // one byte load and only a flagged zone searches the rules.
  std::vector<std::uint8_t> zone_flag(covered_.size(), 0);
  for (const auto& [zone, depth] : rules) zone_flag[zone] = 1;
  constexpr std::size_t kRange = std::size_t{1} << 14;
  const std::size_t ranges = (covered_.size() + kRange - 1) / kRange;
  run_parallel(parallel_for, ranges, [&](std::size_t range) {
    const std::size_t end = std::min(covered_.size(), (range + 1) * kRange);
    for (std::size_t i = range * kRange; i < end; ++i) {
      const auto id = static_cast<NameId>(i);
      if (!tree.is_name(id)) continue;
      const std::size_t depth = tree.depth(id);
      for (NameId zone = tree.parent(id);
           zone != kInvalidNameId && zone != tree.root();
           zone = tree.parent(zone)) {
        if (zone_flag[zone] != 0 &&
            std::binary_search(rules.begin(), rules.end(),
                               std::make_pair(zone, depth))) {
          covered_[i] = 1;
          break;
        }
      }
    }
  });
}

std::size_t FindingCover::count(std::span<const NameId> ids) const noexcept {
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
