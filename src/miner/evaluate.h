// Mining-quality evaluation against the scenario's ground truth, plus the
// finding index used to attribute traffic to mined disposable zones.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dns/public_suffix.h"
#include "miner/algorithm1.h"
#include "util/strings.h"
#include "workload/scenario.h"

namespace dnsnoise {

/// Fast "is this name covered by a mined (zone, depth) pair?" lookup.
class FindingIndex {
 public:
  explicit FindingIndex(std::span<const DisposableZoneFinding> findings);

  /// True when the name's depth and an enclosing zone match some finding.
  /// A finding's zone is a proper suffix of the names it covers, so names
  /// of fewer than two labels (the root, a bare TLD) match nothing.
  bool is_disposable(const DomainName& name) const;

  std::size_t size() const noexcept { return count_; }

 private:
  // zone text -> set of group depths; probed with string_view suffixes.
  std::unordered_map<std::string, std::unordered_set<std::size_t>, StringHash,
                     std::equal_to<>>
      rules_;
  std::size_t count_ = 0;
};

struct MiningEvaluation {
  std::size_t findings = 0;
  std::size_t true_positive_findings = 0;
  std::size_t false_positive_findings = 0;
  std::size_t unique_2lds = 0;           // distinct 2LDs among findings
  std::size_t truth_zones_discovered = 0;
  /// Discovered truth zones per archetype — the paper's "industries that
  /// use disposable domains" row (Fig. 11).
  std::unordered_map<std::string, std::size_t> discovered_by_archetype;

  double finding_precision() const noexcept {
    return findings == 0 ? 0.0
                         : static_cast<double>(true_positive_findings) /
                               static_cast<double>(findings);
  }
};

/// A finding (z, k) is a true positive when some truth zone generates names
/// of depth k and its apex is in an ancestor/descendant relation with z.
MiningEvaluation evaluate_findings(
    std::span<const DisposableZoneFinding> findings, const GroundTruth& truth,
    const PublicSuffixList& psl = PublicSuffixList::builtin());

}  // namespace dnsnoise
