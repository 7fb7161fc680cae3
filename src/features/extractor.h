// Statistical feature extraction for a depth group G_k (Section V-A2).
//
// Two feature families:
//   Tree structure — over L_k, the set of labels adjacent to the zone under
//   inspection: cardinality m plus max/min/mean/median/variance of each
//   label's Shannon character entropy.
//   Cache hit rate — over the group's RRs: weighted median of the CHR
//   distribution and the fraction of RRs with zero CHR.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "features/chr.h"
#include "features/domain_tree.h"

namespace dnsnoise {

inline constexpr std::size_t kFeatureCount = 8;

inline constexpr std::array<const char*, kFeatureCount> kFeatureNames = {
    "label_cardinality", "entropy_max",    "entropy_min",
    "entropy_mean",      "entropy_median", "entropy_var",
    "chr_median",        "chr_zero_frac",
};

struct GroupFeatures {
  // Tree-structure family.
  double label_cardinality = 0.0;
  double entropy_max = 0.0;
  double entropy_min = 0.0;
  double entropy_mean = 0.0;
  double entropy_median = 0.0;
  double entropy_var = 0.0;
  // Cache-hit-rate family.
  double chr_median = 0.0;
  double chr_zero_frac = 0.0;
  // Not a classifier input: used for minimum-group-size gating.
  std::size_t group_size = 0;

  std::array<double, kFeatureCount> as_array() const noexcept {
    return {label_cardinality, entropy_max,    entropy_min, entropy_mean,
            entropy_median,    entropy_var,    chr_median,  chr_zero_frac};
  }
};

/// Reusable flat buffers for compute_group_features.  The extraction is
/// structured as SoA passes — gather adjacent nodes, dedup labels, batch
/// the entropy kernel over the label array, then flat CHR arrays — and
/// this scratch keeps those arrays' capacity alive across the groups of a
/// mining walk so steady-state extraction allocates nothing.  One scratch
/// per worker thread (never shared concurrently).
struct GroupFeatureScratch {
  std::vector<NameId> adjacent;
  std::vector<std::string_view> labels;
  std::vector<double> entropies;
  std::vector<double> chr_rates;
  std::vector<std::uint64_t> chr_weights;
  std::vector<std::uint32_t> chr_order;
};

/// What one zone walk reuses: the depth buckets of its groups, the
/// extraction buffers, and a name buffer for looking a zone up by text.
struct ZoneScratch {
  DepthGroups groups;
  GroupFeatureScratch features;
  DomainName zone;
};

/// Leases one of the calling thread's ZoneScratch for its lifetime.  Each
/// thread keeps a stack of them, so a pool worker that runs another walk
/// while it waits inside one (engine/thread_pool.h) leases a second
/// scratch instead of overwriting the first.  Once a thread's stack has
/// grown, leasing allocates nothing.
class ZoneScratchLease {
 public:
  ZoneScratchLease();
  ~ZoneScratchLease();
  ZoneScratchLease(const ZoneScratchLease&) = delete;
  ZoneScratchLease& operator=(const ZoneScratchLease&) = delete;

  ZoneScratch& operator*() const noexcept { return *scratch_; }
  ZoneScratch* operator->() const noexcept { return scratch_; }

 private:
  ZoneScratch* scratch_;
};

/// Computes the features of the group of black nodes `group` of `tree`
/// (all at the same depth) under the zone node at depth `zone_depth`.
/// `chr` supplies per-RR query/miss counts for the same day, keyed on the
/// tree's table: a node's RRs are found by its id.
GroupFeatures compute_group_features(const DomainNameTree& tree,
                                     std::span<const NameId> group,
                                     std::size_t zone_depth,
                                     const CacheHitRateTracker& chr);

/// Scratch-reusing overload for hot callers (the miner walk); identical
/// output, zero steady-state allocations.
GroupFeatures compute_group_features(const DomainNameTree& tree,
                                     std::span<const NameId> group,
                                     std::size_t zone_depth,
                                     const CacheHitRateTracker& chr,
                                     GroupFeatureScratch& scratch);

}  // namespace dnsnoise
