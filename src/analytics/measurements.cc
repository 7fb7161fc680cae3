#include "analytics/measurements.h"

#include <algorithm>

namespace dnsnoise {

namespace {

/// Parses and classifies an RR's owner once per entry.
bool entry_is_disposable(const CacheHitRateTracker& chr,
                         const CompactRecord& key,
                         const DisposablePredicate& is_disposable) {
  const auto name = DomainName::parse(chr.names().name(key.owner));
  return name && is_disposable(*name);
}

}  // namespace

std::vector<std::uint64_t> sorted_lookup_volumes(
    const CacheHitRateTracker& chr) {
  std::vector<std::uint64_t> volumes;
  volumes.reserve(chr.unique_rrs());
  for (const auto& [key, counts] : chr.entries()) {
    volumes.push_back(counts.below);
  }
  std::sort(volumes.begin(), volumes.end(), std::greater<>());
  return volumes;
}

double lookup_tail_fraction(const CacheHitRateTracker& chr,
                            std::uint64_t threshold) {
  if (chr.unique_rrs() == 0) return 0.0;
  std::size_t tail = 0;
  for (const auto& [key, counts] : chr.entries()) {
    if (counts.below < threshold) ++tail;
  }
  return static_cast<double>(tail) / static_cast<double>(chr.unique_rrs());
}

std::vector<CdfPoint> dhr_cdf(const CacheHitRateTracker& chr,
                              std::size_t points) {
  return empirical_cdf(chr.all_dhr(), points);
}

double zero_dhr_fraction(const CacheHitRateTracker& chr) {
  if (chr.unique_rrs() == 0) return 0.0;
  std::size_t zero = 0;
  for (const auto& [key, counts] : chr.entries()) {
    if (CacheHitRateTracker::dhr(counts) == 0.0) ++zero;
  }
  return static_cast<double>(zero) / static_cast<double>(chr.unique_rrs());
}

std::vector<CdfPoint> chr_cdf(const CacheHitRateTracker& chr,
                              std::size_t points) {
  return empirical_cdf(chr.chr_distribution(), points);
}

double chr_fraction_below(const CacheHitRateTracker& chr, double x) {
  std::uint64_t below = 0;
  std::uint64_t total = 0;
  for (const auto& [key, counts] : chr.entries()) {
    total += counts.above;
    if (CacheHitRateTracker::dhr(counts) < x) below += counts.above;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(below) / static_cast<double>(total);
}

LabeledChrStudy labeled_chr_study(const CacheHitRateTracker& chr,
                                  const DisposablePredicate& is_disposable) {
  return labeled_chr_study(chr, is_disposable,
                           [](const DomainName&) { return true; });
}

LabeledChrStudy labeled_chr_study(
    const CacheHitRateTracker& chr, const DisposablePredicate& is_disposable,
    const DisposablePredicate& is_labeled_nondisposable) {
  LabeledChrStudy study;
  std::uint64_t disposable_zero = 0;
  std::uint64_t nondisposable_high = 0;
  for (const auto& [key, counts] : chr.entries()) {
    if (counts.above == 0) continue;  // never missed: no CHR samples
    const double rate = CacheHitRateTracker::dhr(counts);
    const bool disposable = entry_is_disposable(chr, key, is_disposable);
    if (!disposable &&
        !entry_is_disposable(chr, key, is_labeled_nondisposable)) {
      continue;  // unlabeled traffic is not part of the Fig. 7 comparison
    }
    auto& bucket =
        disposable ? study.disposable_chr : study.nondisposable_chr;
    for (std::uint64_t i = 0; i < counts.above; ++i) bucket.push_back(rate);
    if (&bucket == &study.disposable_chr && rate == 0.0) {
      disposable_zero += counts.above;
    }
    if (&bucket == &study.nondisposable_chr && rate > 0.58) {
      nondisposable_high += counts.above;
    }
  }
  if (!study.disposable_chr.empty()) {
    study.disposable_zero_fraction =
        static_cast<double>(disposable_zero) /
        static_cast<double>(study.disposable_chr.size());
  }
  if (!study.nondisposable_chr.empty()) {
    study.nondisposable_above_058_fraction =
        static_cast<double>(nondisposable_high) /
        static_cast<double>(study.nondisposable_chr.size());
  }
  return study;
}

TailComposition lookup_tail_composition(
    const CacheHitRateTracker& chr, const DisposablePredicate& is_disposable,
    std::uint64_t threshold) {
  TailComposition result;
  std::uint64_t tail = 0;
  std::uint64_t tail_disposable = 0;
  std::uint64_t disposable = 0;
  const std::uint64_t total = chr.unique_rrs();
  for (const auto& [key, counts] : chr.entries()) {
    const bool in_tail = counts.below < threshold;
    const bool is_disp = entry_is_disposable(chr, key, is_disposable);
    if (in_tail) ++tail;
    if (is_disp) ++disposable;
    if (in_tail && is_disp) ++tail_disposable;
  }
  if (total > 0) {
    result.tail_fraction =
        static_cast<double>(tail) / static_cast<double>(total);
  }
  if (tail > 0) {
    result.disposable_share_of_tail =
        static_cast<double>(tail_disposable) / static_cast<double>(tail);
  }
  if (disposable > 0) {
    result.disposable_inside_tail =
        static_cast<double>(tail_disposable) /
        static_cast<double>(disposable);
  }
  return result;
}

TailComposition zero_dhr_tail_composition(
    const CacheHitRateTracker& chr, const DisposablePredicate& is_disposable) {
  TailComposition result;
  std::uint64_t tail = 0;
  std::uint64_t tail_disposable = 0;
  std::uint64_t disposable = 0;
  const std::uint64_t total = chr.unique_rrs();
  for (const auto& [key, counts] : chr.entries()) {
    const bool in_tail = CacheHitRateTracker::dhr(counts) == 0.0;
    const bool is_disp = entry_is_disposable(chr, key, is_disposable);
    if (in_tail) ++tail;
    if (is_disp) ++disposable;
    if (in_tail && is_disp) ++tail_disposable;
  }
  if (total > 0) {
    result.tail_fraction =
        static_cast<double>(tail) / static_cast<double>(total);
  }
  if (tail > 0) {
    result.disposable_share_of_tail =
        static_cast<double>(tail_disposable) / static_cast<double>(tail);
  }
  if (disposable > 0) {
    result.disposable_inside_tail =
        static_cast<double>(tail_disposable) /
        static_cast<double>(disposable);
  }
  return result;
}

LogHistogram disposable_ttl_histogram(
    const CacheHitRateTracker& chr, const DisposablePredicate& is_disposable) {
  LogHistogram histogram(86400.0, 4);
  for (const auto& [key, counts] : chr.entries()) {
    if (!entry_is_disposable(chr, key, is_disposable)) continue;
    histogram.add(static_cast<double>(std::min<std::uint32_t>(counts.ttl,
                                                              86400)));
  }
  return histogram;
}

double disposable_ttl_fraction_at_most(
    const CacheHitRateTracker& chr, const DisposablePredicate& is_disposable,
    std::uint32_t value) {
  std::uint64_t total = 0;
  std::uint64_t at_most = 0;
  for (const auto& [key, counts] : chr.entries()) {
    if (!entry_is_disposable(chr, key, is_disposable)) continue;
    ++total;
    if (counts.ttl <= value) ++at_most;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(at_most) /
                          static_cast<double>(total);
}

}  // namespace dnsnoise
