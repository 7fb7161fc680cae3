// Minimal IPv4/IPv6 address values with parse/format, shared by the DNS
// rdata codec and the packet layer.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dnsnoise {

/// IPv4 address stored in host byte order.
struct Ipv4 {
  std::uint32_t value = 0;

  static constexpr Ipv4 from_octets(std::uint8_t a, std::uint8_t b,
                                    std::uint8_t c, std::uint8_t d) noexcept {
    return Ipv4{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                (std::uint32_t{c} << 8) | std::uint32_t{d}};
  }

  std::array<std::uint8_t, 4> octets() const noexcept {
    return {static_cast<std::uint8_t>(value >> 24),
            static_cast<std::uint8_t>(value >> 16),
            static_cast<std::uint8_t>(value >> 8),
            static_cast<std::uint8_t>(value)};
  }

  friend bool operator==(Ipv4, Ipv4) = default;
};

/// Parses dotted-quad notation.
std::optional<Ipv4> parse_ipv4(std::string_view text) noexcept;

/// Formats as dotted quad.
std::string format_ipv4(Ipv4 ip);

/// Appends the dotted quad to `out` (allocation-free once `out` has room).
void append_ipv4(std::string& out, Ipv4 ip);

/// IPv6 address as 16 network-order bytes.
struct Ipv6 {
  std::array<std::uint8_t, 16> bytes{};
  friend bool operator==(const Ipv6&, const Ipv6&) = default;
};

/// Parses full or '::'-compressed hex groups (no embedded IPv4 form).
std::optional<Ipv6> parse_ipv6(std::string_view text) noexcept;

/// Formats with best-effort '::' compression of the longest zero run.
std::string format_ipv6(const Ipv6& ip);

/// Appends format_ipv6(ip) to `out`.
void append_ipv6(std::string& out, const Ipv6& ip);

}  // namespace dnsnoise
