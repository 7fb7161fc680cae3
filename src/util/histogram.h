// Histograms and empirical CDFs for the measurement layer.
//
// The paper reports several distributional views: CDFs of domain/cache hit
// rates (Figs. 3b, 4, 7), log-scale lookup-volume tails (Fig. 3a), and a
// log-binned TTL histogram (Fig. 14).  These types produce those series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dnsnoise {

/// Logarithmically binned histogram for positive values (e.g. TTLs 0..86400).
/// Zero values land in a dedicated underflow bin, mirroring the paper's
/// Fig. 14 where TTL=0 is plotted distinctly on a log axis.
class LogHistogram {
 public:
  /// decade_bins log10 bins covering [1, max]; values > max are clamped.
  LogHistogram(double max, std::size_t decade_bins = 4);

  void add(double value, std::uint64_t weight = 1) noexcept;

  std::uint64_t zero_count() const noexcept { return zero_; }
  std::size_t bins() const noexcept { return counts_.size(); }
  std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
  std::uint64_t total() const noexcept { return total_; }
  /// Geometric center of the given bin.
  double bin_center(std::size_t bin) const;
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;

 private:
  double max_;
  double decade_bins_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t zero_ = 0;
  std::uint64_t total_ = 0;
};

/// One (x, F(x)) point of an empirical CDF.
struct CdfPoint {
  double x = 0.0;
  double f = 0.0;
};

/// Empirical CDF evaluated at `points` evenly spaced quantile positions, in
/// the exact style of the paper's CDF figures.
std::vector<CdfPoint> empirical_cdf(std::span<const double> values,
                                    std::size_t points = 101);

/// Evaluates the empirical CDF of `values` at a specific x: P(X <= x).
double cdf_at(std::span<const double> values, double x);

}  // namespace dnsnoise
