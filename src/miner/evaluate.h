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
#include "util/parallel_for.h"
#include "workload/scenario.h"

namespace dnsnoise {

/// Which names of a capture the findings cover: a name of depth k is
/// covered when one of its ancestors, the root excluded, is the zone of a
/// finding (zone, k).  The cover is a pure function of the tree and the
/// findings, so every id of the tree's table is decided once, up front,
/// by walking its ancestors: in id ranges through `parallel_for`
/// (serially when it is empty).  Lookups are then read-only.
class FindingCover {
 public:
  /// Decides the ids `tree`'s table holds now; later ids are not covered.
  FindingCover(const DomainNameTree& tree,
               std::span<const DisposableZoneFinding> findings,
               const ParallelFor& parallel_for = {});

  /// True when the findings cover `id`.  An id that is not a name of the
  /// tree's table (rdata text, kInvalidNameId) is not covered.
  bool covers(NameId id) const noexcept {
    return id < covered_.size() && covered_[id] != 0;
  }

  /// How many of `ids` the findings cover.
  std::size_t count(std::span<const NameId> ids) const noexcept;

 private:
  std::vector<std::uint8_t> covered_;  // per id of the tree's table
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
