#include "util/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dnsnoise {

ZipfSampler::ZipfSampler(std::size_t n, double s) : exponent_(s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfSampler: n must be < 2^32");
  }
  if (s < 0.0)
    throw std::invalid_argument("ZipfSampler: exponent must be >= 0");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (auto& value : cdf_) value /= total;
  cdf_.back() = 1.0;  // guard against accumulated floating point error

  const std::size_t buckets = std::bit_ceil(n);
  buckets_ = static_cast<double>(buckets);
  guide_.resize(buckets + 1);
  std::uint32_t rank = 0;
  for (std::size_t k = 0; k <= buckets; ++k) {
    // cdf_.back() == 1.0 >= k/M, so the walk stops inside the CDF.
    const double edge = static_cast<double>(k) / buckets_;
    while (cdf_[rank] < edge) ++rank;
    guide_[k] = rank;
  }
}

std::size_t ZipfSampler::rank_of(double u) const noexcept {
  const auto k = static_cast<std::size_t>(u * buckets_);
  const double* first = cdf_.data() + guide_[k];
  const double* last = cdf_.data() + guide_[k + 1];
  return static_cast<std::size_t>(std::lower_bound(first, last, u) -
                                  cdf_.data());
}

double ZipfSampler::pmf(std::size_t rank) const noexcept {
  if (rank >= cdf_.size()) return 0.0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace dnsnoise
