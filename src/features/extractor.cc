#include "features/extractor.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>

#include "util/simd/kernels.h"
#include "util/stats.h"

namespace dnsnoise {

namespace {

/// Weighted median over parallel (rate, weight) arrays: the smallest rate r
/// whose entries of rate <= r carry at least half the total weight; 1.0
/// for an empty sample (an RR set with zero misses behaves as perfectly
/// cached).  Found by weighted quickselect over `order`, scratch for an
/// index permutation, so a large group costs linear time, not a sort.  The
/// answer is a value, so ties in rate need no tiebreak.
double weighted_median(std::span<const double> rates,
                       std::span<const std::uint64_t> weights,
                       std::vector<std::uint32_t>& order) {
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  if (total == 0) return 1.0;
  order.resize(rates.size());
  std::iota(order.begin(), order.end(), 0u);
  auto first = order.begin();
  auto last = order.end();
  std::uint64_t below = 0;  // weight of the entries left of `first`
  for (;;) {
    // Median of three, so sorted or reversed input still halves the range.
    double a = rates[*first];
    double b = rates[*(first + (last - first) / 2)];
    const double c = rates[*(last - 1)];
    if (a > b) std::swap(a, b);
    const double pivot = c < a ? a : (c > b ? b : c);
    const auto less_end = std::partition(
        first, last, [&](std::uint32_t i) { return rates[i] < pivot; });
    const auto equal_end = std::partition(
        less_end, last, [&](std::uint32_t i) { return rates[i] == pivot; });
    std::uint64_t less = 0;
    for (auto it = first; it != less_end; ++it) less += weights[*it];
    std::uint64_t equal = 0;
    for (auto it = less_end; it != equal_end; ++it) equal += weights[*it];
    if ((below + less) * 2 >= total) {
      last = less_end;
    } else if ((below + less + equal) * 2 >= total) {
      return pivot;
    } else {
      below += less + equal;
      first = equal_end;
    }
  }
}

/// The calling thread's scratches; the first `leased` are in use.
struct ScratchStack {
  std::vector<std::unique_ptr<ZoneScratch>> scratches;
  std::size_t leased = 0;
};
thread_local ScratchStack tls_scratch;

}  // namespace

ZoneScratchLease::ZoneScratchLease() {
  ScratchStack& stack = tls_scratch;
  if (stack.leased == stack.scratches.size()) {
    stack.scratches.push_back(std::make_unique<ZoneScratch>());
  }
  scratch_ = stack.scratches[stack.leased++].get();
}

ZoneScratchLease::~ZoneScratchLease() { --tls_scratch.leased; }

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
    // A preorder group lists each ancestor's members together, so most
    // duplicates are adjacent: skip them before the sort.
    if (scratch.adjacent.empty() || scratch.adjacent.back() != node) {
      scratch.adjacent.push_back(node);
    }
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
