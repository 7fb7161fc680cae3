// Link/network/transport codecs: Ethernet II, IPv4, IPv6, UDP.
//
// Builds the frames the traffic generator writes into pcap, and parses them
// back on the capture path.  Parsing is zero-copy: ParsedPacket::payload
// views into the input frame.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dns/ip.h"

namespace dnsnoise {

/// Either end of a parsed packet, IPv4 or IPv6.
struct Endpoint {
  bool is_v6 = false;
  Ipv4 v4{};
  Ipv6 v6{};
  std::uint16_t port = 0;
};

/// A parsed UDP datagram.
struct ParsedPacket {
  Endpoint src;
  Endpoint dst;
  std::span<const std::uint8_t> payload;
};

/// Internet checksum (RFC 1071) over a byte range.
std::uint16_t inet_checksum(std::span<const std::uint8_t> data) noexcept;

/// Builds an Ethernet/IPv4/UDP frame around `payload`.  MAC addresses are
/// synthetic constants (the capture path never inspects them).
std::vector<std::uint8_t> build_udp4_frame(
    Ipv4 src_ip, std::uint16_t src_port, Ipv4 dst_ip, std::uint16_t dst_port,
    std::span<const std::uint8_t> payload);

/// Builds an Ethernet/IPv6/UDP frame around `payload`.
std::vector<std::uint8_t> build_udp6_frame(
    const Ipv6& src_ip, std::uint16_t src_port, const Ipv6& dst_ip,
    std::uint16_t dst_port, std::span<const std::uint8_t> payload);

/// Parses an Ethernet frame down to a UDP datagram.  Returns std::nullopt
/// for non-IP ethertypes, non-UDP protocols, or any truncation.  Does not
/// verify checksums (the capture path, like real taps, trusts the NIC).
std::optional<ParsedPacket> parse_frame(
    std::span<const std::uint8_t> frame) noexcept;

/// Verifies the IPv4 header checksum of a frame previously accepted by
/// parse_frame; exposed for tests.
bool verify_ipv4_checksum(std::span<const std::uint8_t> frame) noexcept;

}  // namespace dnsnoise
