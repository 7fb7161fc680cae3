// Algorithm 1: the disposable domain classification walk (paper Section V-B).
//
// Starting from every effective 2LD in the day's domain name tree, group
// the zone's black descendants by depth, classify each group's statistical
// vector, decolor groups classified disposable with confidence >= theta,
// emit the (zone, depth) pair, and recurse into the child zones.
//
// Walks allocate per finding, not per zone: a walk groups into the
// reusable depth buckets of a per-thread ZoneScratch (features/extractor.h).
// On a pool, the effective 2LDs run heaviest first, and a zone with at
// least kSplitBlackNodes black descendants is split: its groups' features
// are computed in parallel (they read no colours), the groups are then
// classified and decolored in depth order, and its child zones become
// tasks.  The split is a function of the tree, never of the schedule.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "features/chr.h"
#include "features/domain_tree.h"
#include "features/extractor.h"
#include "ml/classifier.h"
#include "obs/trace.h"
#include "util/parallel_for.h"

namespace dnsnoise::obs {
class Counter;
class LatencyRecorder;
class MetricsRegistry;
}  // namespace dnsnoise::obs

namespace dnsnoise {

struct MinerConfig {
  /// Classifier confidence threshold theta (paper Line 5: 0.9).
  double threshold = 0.9;
  /// Groups smaller than this are not classified (implementation guard; the
  /// paper labels zones with >= 15 names and leaves tiny groups untouched).
  std::size_t min_group_size = 5;
  const PublicSuffixList* psl = &PublicSuffixList::builtin();
  /// Opt-in observability sink (DESIGN.md §10): the miner.* walk counters
  /// and the feature-extraction timer.  Must outlive the miner; null = no
  /// instrumentation.  Safe to share across the engine's parallel zone
  /// walks (all handles are atomics).
  obs::MetricsRegistry* metrics = nullptr;
  /// Opt-in event tracing (DESIGN.md §12): per effective-2LD zone-visit
  /// spans plus group-classify/decolor instant events into the miner
  /// stream.  Must outlive the miner; null = no tracing.  Safe to share
  /// across the engine's parallel zone walks (the stream's ring cursor is
  /// atomic).
  obs::TraceCollector* trace = nullptr;
};

/// One mined disposable zone: the output pair (zone, depth) of Algorithm 1
/// plus the classification evidence.
struct DisposableZoneFinding {
  std::string zone;
  std::size_t depth = 0;
  double confidence = 0.0;
  std::size_t group_size = 0;
  GroupFeatures features;
};

class DisposableZoneMiner {
 public:
  /// Black descendants from which a zone's walk is split on a pool.
  static constexpr std::size_t kSplitBlackNodes = 1 << 14;

  /// `model` must be trained and outlive the miner.
  DisposableZoneMiner(const BinaryClassifier& model, MinerConfig config = {});

  /// Runs Algorithm 1 over the whole tree (every effective 2LD), serially.
  /// Decolors classified groups in place.  Findings are ranked by
  /// confidence, then group size, descending.
  std::vector<DisposableZoneFinding> mine(DomainNameTree& tree,
                                          const CacheHitRateTracker& chr) const;

  /// Runs Algorithm 1 rooted at each of `zones`, which must head disjoint
  /// subtrees (the effective 2LDs do), through `parallel_for` (serially
  /// when it is empty), and ranks the findings as mine() does.  The
  /// findings do not depend on the schedule.  When tracing is enabled,
  /// each zone of `zones` records one miner.zone span, labeled with the
  /// zone name, that covers its subzones.
  std::vector<DisposableZoneFinding> mine_zones(
      DomainNameTree& tree, std::span<const NameId> zones,
      const CacheHitRateTracker& chr,
      const ParallelFor& parallel_for = {}) const;

  /// Ranks findings by confidence desc, group size desc, then (zone, depth)
  /// asc.  The key is a total order over distinct findings, so any
  /// permutation of `findings` — e.g. from parallel per-zone mining — sorts
  /// to the same sequence.
  static void sort_findings(std::vector<DisposableZoneFinding>& findings);

  const MinerConfig& config() const noexcept { return config_; }

 private:
  const BinaryClassifier& model_;
  MinerConfig config_;

  /// One top-level walk inside its miner.zone span.
  void mine_zone(DomainNameTree& tree, NameId zone,
                 const CacheHitRateTracker& chr,
                 std::vector<DisposableZoneFinding>& out,
                 const ParallelFor& parallel_for) const;
  /// Lines 1-17 at `zone`, then its child zones; `scratch` is this
  /// thread's lease.
  void walk(DomainNameTree& tree, NameId zone, const CacheHitRateTracker& chr,
            std::vector<DisposableZoneFinding>& out, ZoneScratch& scratch,
            const ParallelFor& parallel_for) const;
  /// walk() of a zone whose groups are in `groups`, split on the pool.
  void split_walk(DomainNameTree& tree, NameId zone,
                  const CacheHitRateTracker& chr, const DepthGroups& groups,
                  std::vector<DisposableZoneFinding>& out,
                  const ParallelFor& parallel_for) const;
  GroupFeatures features_of(const DomainNameTree& tree, NameId zone,
                            std::span<const NameId> nodes,
                            const CacheHitRateTracker& chr,
                            GroupFeatureScratch& scratch) const;
  /// Lines 6-14 for one group: classify; on a confident hit decolor it and
  /// append the finding.
  void classify(DomainNameTree& tree, NameId zone, std::size_t depth,
                std::span<const NameId> nodes, const GroupFeatures& features,
                std::vector<DisposableZoneFinding>& out) const;

  // Metric handles resolved once at construction; all null when
  // config_.metrics is null.
  obs::Counter* zones_visited_ = nullptr;
  obs::Counter* groups_classified_ = nullptr;
  obs::Counter* groups_decolored_ = nullptr;
  obs::Counter* names_decolored_ = nullptr;
  obs::LatencyRecorder* features_timer_ = nullptr;
  obs::TraceStream* trace_stream_ = nullptr;  // null when untraced
};

}  // namespace dnsnoise
