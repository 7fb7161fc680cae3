// String helpers shared across modules.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace dnsnoise {

/// Transparent string hash: an unordered container keyed by std::string
/// with StringHash and std::equal_to<> takes string_view probes, so a
/// lookup never materializes a std::string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Splits `s` on every occurrence of `sep`; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string_view>& parts, char sep);
std::string join(const std::vector<std::string>& parts, char sep);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

/// True if `s` ends with `suffix`.
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Formats a count with thousands separators ("14488" -> "14,488").
std::string with_commas(std::uint64_t value);

/// Formats a double with fixed precision.
std::string fixed(double value, int precision);

/// Formats a ratio in [0,1] as a percentage string, e.g. "23.1%".
std::string percent(double ratio, int precision = 1);

}  // namespace dnsnoise
