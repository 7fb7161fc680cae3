// Per-figure measurement routines: each function computes exactly the
// statistic one of the paper's figures or tables reports, from a day's
// capture (see DESIGN.md §4 for the figure -> function mapping).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "features/chr.h"
#include "util/histogram.h"

namespace dnsnoise {

/// Predicate deciding whether a resolved name is disposable — either the
/// scenario ground truth or mined findings, depending on the study.
using DisposablePredicate = std::function<bool(const DomainName&)>;

// --------------------------------------------------------------------------
// Fig. 3a — lookup-volume long tail.

/// Per-RR daily lookup volumes, descending (the paper's sorted series).
std::vector<std::uint64_t> sorted_lookup_volumes(
    const CacheHitRateTracker& chr);

/// Fraction of RRs with fewer than `threshold` lookups (paper: >90% below
/// 10 lookups/day).
double lookup_tail_fraction(const CacheHitRateTracker& chr,
                            std::uint64_t threshold = 10);

// --------------------------------------------------------------------------
// Fig. 3b / Fig. 4 — DHR and CHR distributions.

/// Empirical CDF of the per-RR domain hit rate (Fig. 3b).
std::vector<CdfPoint> dhr_cdf(const CacheHitRateTracker& chr,
                              std::size_t points = 101);

/// Fraction of RRs with zero domain hit rate (paper: 89% -> 93% over 2011).
double zero_dhr_fraction(const CacheHitRateTracker& chr);

/// Empirical CDF of the CHR distribution, miss-weighted (Fig. 4).
std::vector<CdfPoint> chr_cdf(const CacheHitRateTracker& chr,
                              std::size_t points = 101);

/// Fraction of CHR mass strictly below `x` (paper: 58% below 0.5).
double chr_fraction_below(const CacheHitRateTracker& chr, double x);

// --------------------------------------------------------------------------
// Fig. 7 — CHR distributions of labeled disposable vs non-disposable zones.

struct LabeledChrStudy {
  std::vector<double> disposable_chr;     // miss-weighted CHR samples
  std::vector<double> nondisposable_chr;
  double disposable_zero_fraction = 0.0;          // paper: ~90% at zero
  double nondisposable_above_058_fraction = 0.0;  // paper: 45% above 0.58
};

LabeledChrStudy labeled_chr_study(const CacheHitRateTracker& chr,
                                  const DisposablePredicate& is_disposable);

/// Variant restricted to labeled zones, the paper's actual comparison: RRs
/// matching `is_disposable` form the positive class, RRs matching
/// `is_labeled_nondisposable` the negative class, and everything else is
/// excluded (the paper compares 398 disposable zones against 401 Alexa
/// zones, not against the rest of the traffic).
LabeledChrStudy labeled_chr_study(
    const CacheHitRateTracker& chr, const DisposablePredicate& is_disposable,
    const DisposablePredicate& is_labeled_nondisposable);

// --------------------------------------------------------------------------
// Tables I / II — tail composition.

struct TailComposition {
  double tail_fraction = 0.0;             // column "Volume < 10" / "zero DHR"
  double disposable_share_of_tail = 0.0;  // column "% of tail disposable"
  double disposable_inside_tail = 0.0;    // column "% of all disposable..."
};

/// Table I row: the low-lookup-volume tail (< threshold lookups).
TailComposition lookup_tail_composition(
    const CacheHitRateTracker& chr, const DisposablePredicate& is_disposable,
    std::uint64_t threshold = 10);

/// Table II row: the zero-DHR tail.
TailComposition zero_dhr_tail_composition(
    const CacheHitRateTracker& chr, const DisposablePredicate& is_disposable);

// --------------------------------------------------------------------------
// Fig. 14 — TTL histogram of disposable RRs.

/// Log-binned TTL histogram over disposable RRs (values clamped to 86400s,
/// zero TTL in the dedicated underflow bin, like the paper's plot).
LogHistogram disposable_ttl_histogram(const CacheHitRateTracker& chr,
                                      const DisposablePredicate& is_disposable);

/// Fraction of disposable RRs with TTL <= `value`.
double disposable_ttl_fraction_at_most(const CacheHitRateTracker& chr,
                                       const DisposablePredicate& is_disposable,
                                       std::uint32_t value);

}  // namespace dnsnoise
