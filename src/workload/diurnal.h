// Diurnal load profile: relative query-rate weight per hour of day.
//
// The paper's Fig. 2 shows the classic human-driven curve — traffic drops
// after midnight and climbs from ~10am local time.  The default profile
// reproduces that shape.
#pragma once

#include <array>
#include <cstddef>

#include "util/sim_time.h"

namespace dnsnoise {

class DiurnalProfile {
 public:
  /// Default human activity curve (relative weights; normalized on use).
  constexpr DiurnalProfile() = default;

  explicit constexpr DiurnalProfile(const std::array<double, 24>& weights)
      : weights_(weights) {}

  constexpr double weight(int hour) const {
    return weights_[static_cast<std::size_t>(hour % 24)];
  }

  /// Sum of all hourly weights.
  constexpr double total() const {
    double sum = 0.0;
    for (const double w : weights_) sum += w;
    return sum;
  }

  /// Fraction of a day's traffic falling in the given hour.
  constexpr double fraction(int hour) const { return weight(hour) / total(); }

  /// A flat profile (useful for tests: uniform arrival rate).
  static constexpr DiurnalProfile flat() {
    std::array<double, 24> w{};
    for (double& x : w) x = 1.0;
    return DiurnalProfile(w);
  }

 private:
  std::array<double, 24> weights_ = {
      // 00    01    02    03    04    05    06    07
      0.55, 0.40, 0.30, 0.25, 0.22, 0.25, 0.35, 0.50,
      // 08    09    10    11    12    13    14    15
      0.70, 0.90, 1.05, 1.10, 1.10, 1.08, 1.05, 1.05,
      // 16    17    18    19    20    21    22    23
      1.10, 1.20, 1.35, 1.45, 1.50, 1.40, 1.10, 0.80,
  };
};

}  // namespace dnsnoise
