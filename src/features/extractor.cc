#include "features/extractor.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "util/simd/kernels.h"
#include "util/stats.h"

namespace dnsnoise {

namespace {

/// Weighted median over parallel (rate, weight) arrays; 1.0 for an empty
/// sample (an RR set with zero misses behaves as perfectly cached).
/// `order` is scratch for the sort permutation.  Ties in rate need no
/// tiebreak: whichever of the equal entries crosses the halfway mark, the
/// returned *value* is the same.
double weighted_median(std::span<const double> rates,
                       std::span<const std::uint64_t> weights,
                       std::vector<std::uint32_t>& order) {
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  if (total == 0) return 1.0;
  order.resize(rates.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&rates](std::uint32_t a, std::uint32_t b) {
              return rates[a] < rates[b];
            });
  std::uint64_t seen = 0;
  for (const std::uint32_t idx : order) {
    seen += weights[idx];
    if (seen * 2 >= total) return rates[idx];
  }
  return rates[order.back()];
}

}  // namespace

GroupFeatures compute_group_features(const DomainNameTree& tree,
                                     std::span<const NameId> group,
                                     std::size_t zone_depth,
                                     const CacheHitRateTracker& chr) {
  GroupFeatureScratch scratch;
  return compute_group_features(tree, group, zone_depth, chr, scratch);
}

GroupFeatures compute_group_features(const DomainNameTree& tree,
                                     std::span<const NameId> group,
                                     std::size_t zone_depth,
                                     const CacheHitRateTracker& chr,
                                     GroupFeatureScratch& scratch) {
  GroupFeatures features;
  features.group_size = group.size();
  if (group.empty()) return features;

  // --- Tree-structure family, as three flat passes.
  // Pass 1 (gather): ascend each member once to its child-of-zone
  // ancestor (depth zone_depth + 1); deep groups funnel into few
  // ancestors, so dedup by node first.
  scratch.adjacent.clear();
  for (NameId node : group) {
    while (tree.depth(node) > zone_depth + 1) node = tree.parent(node);
    scratch.adjacent.push_back(node);
  }
  std::sort(scratch.adjacent.begin(), scratch.adjacent.end());
  scratch.adjacent.erase(
      std::unique(scratch.adjacent.begin(), scratch.adjacent.end()),
      scratch.adjacent.end());
  // Pass 2 (dedup labels): distinct nodes can still carry equal label
  // text (same label under different parents) — L_k is a set of labels.
  scratch.labels.clear();
  for (const NameId node : scratch.adjacent) {
    scratch.labels.push_back(tree.label(node));
  }
  std::sort(scratch.labels.begin(), scratch.labels.end());
  scratch.labels.erase(
      std::unique(scratch.labels.begin(), scratch.labels.end()),
      scratch.labels.end());
  // Pass 3 (batch kernel): one entropy kernel sweep over the whole label
  // array; summarize() sorts internally, so the moments are independent
  // of gather order.
  scratch.entropies.resize(scratch.labels.size());
  kernels::entropy_many(scratch.labels, scratch.entropies);
  const Summary entropy_summary = summarize(scratch.entropies);
  features.label_cardinality = static_cast<double>(scratch.labels.size());
  features.entropy_max = entropy_summary.max;
  features.entropy_min = entropy_summary.min;
  features.entropy_mean = entropy_summary.mean;
  features.entropy_median = entropy_summary.median;
  features.entropy_var = entropy_summary.variance;

  // --- Cache-hit-rate family: gather the group's RR (DHR, miss-count)
  // pairs into flat parallel arrays, then reduce.
  scratch.chr_rates.clear();
  scratch.chr_weights.clear();
  std::size_t rr_count = 0;
  std::size_t rr_zero = 0;
  for (const NameId node : group) {
    for (const std::uint32_t idx : chr.rrs_of(node)) {
      const auto& [key, counts] = chr.entries()[idx];
      const double rate = CacheHitRateTracker::dhr(counts);
      ++rr_count;
      if (counts.above > 0) {
        scratch.chr_rates.push_back(rate);
        scratch.chr_weights.push_back(counts.above);
        if (rate == 0.0) ++rr_zero;
      }
    }
  }
  features.chr_median =
      weighted_median(scratch.chr_rates, scratch.chr_weights,
                      scratch.chr_order);
  features.chr_zero_frac =
      rr_count == 0 ? 0.0
                    : static_cast<double>(rr_zero) /
                          static_cast<double>(rr_count);
  return features;
}

}  // namespace dnsnoise
