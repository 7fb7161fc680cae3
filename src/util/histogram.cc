#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dnsnoise {

LogHistogram::LogHistogram(double max, std::size_t decade_bins)
    : max_(max), decade_bins_(static_cast<double>(decade_bins)) {
  if (max <= 1.0) throw std::invalid_argument("LogHistogram: max must be > 1");
  if (decade_bins == 0) {
    throw std::invalid_argument("LogHistogram: decade_bins must be > 0");
  }
  const auto nbins =
      static_cast<std::size_t>(std::ceil(std::log10(max) * decade_bins_));
  counts_.assign(std::max<std::size_t>(nbins, 1), 0);
}

void LogHistogram::add(double value, std::uint64_t weight) noexcept {
  total_ += weight;
  if (value < 1.0) {
    zero_ += weight;
    return;
  }
  value = std::min(value, max_);
  auto bin = static_cast<std::size_t>(std::log10(value) * decade_bins_);
  bin = std::min(bin, counts_.size() - 1);
  counts_[bin] += weight;
}

double LogHistogram::bin_lo(std::size_t bin) const {
  return std::pow(10.0, static_cast<double>(bin) / decade_bins_);
}

double LogHistogram::bin_hi(std::size_t bin) const {
  return std::pow(10.0, static_cast<double>(bin + 1) / decade_bins_);
}

double LogHistogram::bin_center(std::size_t bin) const {
  return std::sqrt(bin_lo(bin) * bin_hi(bin));
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> values,
                                    std::size_t points) {
  std::vector<CdfPoint> cdf;
  if (values.empty() || points < 2) return cdf;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  cdf.reserve(points);
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1);
    const auto idx = std::min<std::size_t>(
        static_cast<std::size_t>(q * (n - 1) + 0.5), sorted.size() - 1);
    // F(x) = fraction of samples <= x at this order statistic.
    const auto upper =
        std::upper_bound(sorted.begin(), sorted.end(), sorted[idx]);
    cdf.push_back({sorted[idx],
                   static_cast<double>(upper - sorted.begin()) / n});
  }
  return cdf;
}

double cdf_at(std::span<const double> values, double x) {
  if (values.empty()) return 0.0;
  std::size_t le = 0;
  for (const double v : values) {
    if (v <= x) ++le;
  }
  return static_cast<double>(le) / static_cast<double>(values.size());
}

}  // namespace dnsnoise
