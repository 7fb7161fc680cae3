#include "util/entropy.h"

#include <cmath>

#include "util/simd/kernels.h"

namespace dnsnoise {

double shannon_entropy(std::string_view s) noexcept {
  // Scalar histogram + count-indexed LUT reducer (DESIGN.md §15).
  return kernels::shannon_entropy(s);
}

double normalized_entropy(std::string_view s) noexcept {
  if (s.size() < 2) return 0.0;
  const double h = shannon_entropy(s);
  // A string of length n can have at most min(n, 256) distinct symbols.
  const double max_symbols =
      static_cast<double>(s.size() < 256 ? s.size() : 256);
  return h / std::log2(max_symbols);
}

}  // namespace dnsnoise
