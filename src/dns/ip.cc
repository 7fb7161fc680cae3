#include "dns/ip.h"

#include <cctype>
#include <charconv>

#include "util/strings.h"

namespace dnsnoise {

std::optional<Ipv4> parse_ipv4(std::string_view text) noexcept {
  std::uint32_t value = 0;
  int octet_count = 0;
  std::uint32_t octet = 0;
  int digits = 0;
  for (const char c : text) {
    if (c == '.') {
      if (digits == 0 || octet_count == 3) return std::nullopt;
      value = (value << 8) | octet;
      ++octet_count;
      octet = 0;
      digits = 0;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return std::nullopt;
    octet = octet * 10 + static_cast<std::uint32_t>(c - '0');
    if (octet > 255 || ++digits > 3) return std::nullopt;
  }
  if (digits == 0 || octet_count != 3) return std::nullopt;
  return Ipv4{(value << 8) | octet};
}

std::string format_ipv4(Ipv4 ip) {
  std::string out;
  append_ipv4(out, ip);
  return out;
}

void append_ipv4(std::string& out, Ipv4 ip) {
  char buf[16];
  char* end = buf;
  for (const std::uint8_t octet : ip.octets()) {
    if (end != buf) *end++ = '.';
    end = std::to_chars(end, buf + sizeof(buf), octet).ptr;
  }
  out.append(buf, end);
}

std::optional<Ipv6> parse_ipv6(std::string_view text) noexcept {
  // Split on "::" first (at most one occurrence allowed).
  const std::size_t gap = text.find("::");
  std::string_view head = text;
  std::string_view tail;
  bool has_gap = false;
  if (gap != std::string_view::npos) {
    if (text.find("::", gap + 1) != std::string_view::npos) return std::nullopt;
    has_gap = true;
    head = text.substr(0, gap);
    tail = text.substr(gap + 2);
  }
  auto parse_groups = [](std::string_view part,
                         std::vector<std::uint16_t>& out) -> bool {
    if (part.empty()) return true;
    for (const std::string_view group : split(part, ':')) {
      if (group.empty() || group.size() > 4) return false;
      std::uint16_t v = 0;
      for (const char c : group) {
        const auto uc = static_cast<unsigned char>(c);
        if (std::isxdigit(uc) == 0) return false;
        const int digit = std::isdigit(uc) != 0
                              ? c - '0'
                              : std::tolower(uc) - 'a' + 10;
        v = static_cast<std::uint16_t>((v << 4) | digit);
      }
      out.push_back(v);
    }
    return true;
  };
  std::vector<std::uint16_t> head_groups;
  std::vector<std::uint16_t> tail_groups;
  if (!parse_groups(head, head_groups)) return std::nullopt;
  if (!parse_groups(tail, tail_groups)) return std::nullopt;
  const std::size_t given = head_groups.size() + tail_groups.size();
  if (has_gap ? given >= 8 : given != 8) return std::nullopt;
  Ipv6 out;
  std::size_t idx = 0;
  for (const std::uint16_t g : head_groups) {
    out.bytes[idx++] = static_cast<std::uint8_t>(g >> 8);
    out.bytes[idx++] = static_cast<std::uint8_t>(g);
  }
  idx = 16 - tail_groups.size() * 2;
  for (const std::uint16_t g : tail_groups) {
    out.bytes[idx++] = static_cast<std::uint8_t>(g >> 8);
    out.bytes[idx++] = static_cast<std::uint8_t>(g);
  }
  return out;
}

std::string format_ipv6(const Ipv6& ip) {
  std::string out;
  append_ipv6(out, ip);
  return out;
}

void append_ipv6(std::string& out, const Ipv6& ip) {
  std::array<std::uint16_t, 8> groups{};
  for (std::size_t i = 0; i < 8; ++i) {
    groups[i] = static_cast<std::uint16_t>((ip.bytes[i * 2] << 8) |
                                           ip.bytes[i * 2 + 1]);
  }
  // Find the longest run of zero groups (length >= 2) for '::' compression.
  int best_start = -1;
  int best_len = 1;
  for (int i = 0; i < 8;) {
    if (groups[static_cast<std::size_t>(i)] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[static_cast<std::size_t>(j)] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  // Spelled on the stack (at most 39 characters), appended in one piece.
  char text[40];
  char* end = text;
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      // One colon closes the previous group, the second marks the gap.
      *end++ = ':';
      *end++ = ':';
      i += best_len;
      continue;
    }
    if (end != text && end[-1] != ':') *end++ = ':';
    end = std::to_chars(end, text + sizeof(text),
                        groups[static_cast<std::size_t>(i)], 16)
              .ptr;
    ++i;
  }
  out.append(text, end);
}

}  // namespace dnsnoise
