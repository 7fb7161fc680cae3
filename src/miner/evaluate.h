// Mining-quality evaluation against the scenario's ground truth, plus the
// finding cover used to attribute a capture's names to mined disposable
// zones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dns/public_suffix.h"
#include "features/domain_tree.h"
#include "miner/algorithm1.h"
#include "workload/scenario.h"

namespace dnsnoise {

/// Which names of a capture the findings cover: a name of depth k is
/// covered when one of its ancestors, the root excluded, is the zone of a
/// finding (zone, k).  Findings become (zone id, depth) pairs of the
/// tree's table, and each name is decided once, by walking its ancestors;
/// the answer is kept for the next list that holds it.
class FindingCover {
 public:
  /// `tree` must outlive the cover, and its table must not grow meanwhile.
  FindingCover(const DomainNameTree& tree,
               std::span<const DisposableZoneFinding> findings);

  /// True when the findings cover `id`.  An id that is not a name of the
  /// tree's table (rdata text, kInvalidNameId) is not covered.
  bool covers(NameId id);

  /// How many of `ids` the findings cover.
  std::size_t count(std::span<const NameId> ids);

 private:
  const DomainNameTree& tree_;
  std::vector<std::pair<NameId, std::size_t>> rules_;  // sorted
  std::vector<std::uint8_t> decided_;  // per id: 0 unknown, 1 no, 2 yes
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
