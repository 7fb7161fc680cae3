// Zipf (discrete power-law) sampler over ranks {0, ..., n-1}.
//
// Popularity of non-disposable hostnames follows a heavy-tailed rank
// distribution; the paper's "long tail" of lookup volume (Fig. 3a) emerges
// from exactly this shape.  We precompute the CDF once (O(n)) and sample in
// O(1) expected time through a guide table (DESIGN.md §9.1): M = the
// smallest power of two >= n equal-width buckets of [0, 1), and guide_[k] =
// the first rank whose CDF is >= k/M.  A draw u falls in bucket
// k = floor(u·M), and its rank — the first one whose CDF is >= u, i.e.
// std::lower_bound over the whole CDF — lies in [guide_[k], guide_[k+1]]:
// every rank below guide_[k] has CDF < k/M <= u, and rank guide_[k+1] has
// CDF >= (k+1)/M > u.  u·M and k/M are exact because M is a power of two,
// so the bucket search returns exactly the full search's rank.  The buckets
// hold at most n + M ranks in all and each is hit with probability 1/M, so
// a draw searches about two ranks on average.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace dnsnoise {

class ZipfSampler {
 public:
  /// Builds a sampler over n ranks with exponent s (s >= 0; s == 0 is
  /// uniform).  Probability of rank r is proportional to 1 / (r+1)^s.
  /// n must be in [1, 2^32).
  ZipfSampler(std::size_t n, double s);

  /// Number of ranks.
  std::size_t size() const noexcept { return cdf_.size(); }

  /// Zipf exponent used to build the sampler.
  double exponent() const noexcept { return exponent_; }

  /// Samples a rank in [0, size()): rank_of(rng.uniform()), so it consumes
  /// exactly one uniform() draw.
  std::size_t sample(Rng& rng) const noexcept { return rank_of(rng.uniform()); }

  /// The first rank whose CDF is >= u, for u in [0, 1) — what
  /// std::lower_bound over the CDF returns.
  std::size_t rank_of(double u) const noexcept;

  /// Probability mass of the given rank.
  double pmf(std::size_t rank) const noexcept;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // M + 1 bucket edges, see above
  double buckets_ = 1.0;              // M
  double exponent_ = 1.0;
};

}  // namespace dnsnoise
