#include "netio/packet.h"

namespace dnsnoise {

namespace {

constexpr std::size_t kEthernetHeaderSize = 14;
constexpr std::size_t kIpv4MinHeaderSize = 20;
constexpr std::size_t kIpv6HeaderSize = 40;
constexpr std::size_t kUdpHeaderSize = 8;
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
constexpr std::uint16_t kEtherTypeIpv6 = 0x86dd;
constexpr std::uint8_t kProtoUdp = 17;

// Synthetic MAC addresses for built frames.
constexpr std::uint8_t kSrcMac[6] = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
constexpr std::uint8_t kDstMac[6] = {0x02, 0x00, 0x00, 0x00, 0x00, 0x02};

void put_u16be(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint16_t get_u16be(std::span<const std::uint8_t> b,
                        std::size_t at) noexcept {
  return static_cast<std::uint16_t>((b[at] << 8) | b[at + 1]);
}

// One's-complement sum used by both the IPv4 header checksum and the UDP
// pseudo-header checksum.
std::uint32_t checksum_accumulate(std::span<const std::uint8_t> data,
                                  std::uint32_t sum) noexcept {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(get_u16be(data, i));
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
  return sum;
}

std::uint16_t checksum_finish(std::uint32_t sum) noexcept {
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

}  // namespace

std::uint16_t inet_checksum(std::span<const std::uint8_t> data) noexcept {
  return checksum_finish(checksum_accumulate(data, 0));
}

std::vector<std::uint8_t> build_udp4_frame(
    Ipv4 src_ip, std::uint16_t src_port, Ipv4 dst_ip, std::uint16_t dst_port,
    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  const std::size_t udp_len = kUdpHeaderSize + payload.size();
  const std::size_t ip_len = kIpv4MinHeaderSize + udp_len;
  frame.reserve(kEthernetHeaderSize + ip_len);

  // Ethernet II header.
  frame.insert(frame.end(), std::begin(kDstMac), std::end(kDstMac));
  frame.insert(frame.end(), std::begin(kSrcMac), std::end(kSrcMac));
  put_u16be(frame, kEtherTypeIpv4);

  // IPv4 header (no options).
  const std::size_t ip_start = frame.size();
  frame.push_back(0x45);  // version 4, IHL 5
  frame.push_back(0);     // DSCP/ECN
  put_u16be(frame, static_cast<std::uint16_t>(ip_len));
  put_u16be(frame, 0);     // identification
  put_u16be(frame, 0x4000);  // don't fragment
  frame.push_back(64);     // TTL
  frame.push_back(kProtoUdp);
  put_u16be(frame, 0);     // checksum placeholder
  for (const std::uint8_t b : src_ip.octets()) frame.push_back(b);
  for (const std::uint8_t b : dst_ip.octets()) frame.push_back(b);
  const std::uint16_t ip_csum = inet_checksum(
      std::span(frame).subspan(ip_start, kIpv4MinHeaderSize));
  frame[ip_start + 10] = static_cast<std::uint8_t>(ip_csum >> 8);
  frame[ip_start + 11] = static_cast<std::uint8_t>(ip_csum);

  // UDP header + payload.
  const std::size_t udp_start = frame.size();
  put_u16be(frame, src_port);
  put_u16be(frame, dst_port);
  put_u16be(frame, static_cast<std::uint16_t>(udp_len));
  put_u16be(frame, 0);  // checksum placeholder
  frame.insert(frame.end(), payload.begin(), payload.end());

  // UDP checksum over pseudo-header + UDP segment.
  std::uint32_t sum = 0;
  sum = checksum_accumulate(
      std::span(frame).subspan(ip_start + 12, 8), sum);  // src + dst IPs
  sum += kProtoUdp;
  sum += static_cast<std::uint32_t>(udp_len);
  sum = checksum_accumulate(std::span(frame).subspan(udp_start), sum);
  std::uint16_t udp_csum = checksum_finish(sum);
  if (udp_csum == 0) udp_csum = 0xffff;  // RFC 768: 0 means "no checksum"
  frame[udp_start + 6] = static_cast<std::uint8_t>(udp_csum >> 8);
  frame[udp_start + 7] = static_cast<std::uint8_t>(udp_csum);
  return frame;
}

std::vector<std::uint8_t> build_udp6_frame(
    const Ipv6& src_ip, std::uint16_t src_port, const Ipv6& dst_ip,
    std::uint16_t dst_port, std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  const std::size_t udp_len = kUdpHeaderSize + payload.size();
  frame.reserve(kEthernetHeaderSize + kIpv6HeaderSize + udp_len);

  frame.insert(frame.end(), std::begin(kDstMac), std::end(kDstMac));
  frame.insert(frame.end(), std::begin(kSrcMac), std::end(kSrcMac));
  put_u16be(frame, kEtherTypeIpv6);

  frame.push_back(0x60);  // version 6
  frame.push_back(0);
  frame.push_back(0);
  frame.push_back(0);
  put_u16be(frame, static_cast<std::uint16_t>(udp_len));
  frame.push_back(kProtoUdp);  // next header
  frame.push_back(64);         // hop limit
  frame.insert(frame.end(), src_ip.bytes.begin(), src_ip.bytes.end());
  frame.insert(frame.end(), dst_ip.bytes.begin(), dst_ip.bytes.end());

  const std::size_t udp_start = frame.size();
  put_u16be(frame, src_port);
  put_u16be(frame, dst_port);
  put_u16be(frame, static_cast<std::uint16_t>(udp_len));
  put_u16be(frame, 0);
  frame.insert(frame.end(), payload.begin(), payload.end());

  std::uint32_t sum = 0;
  sum = checksum_accumulate(std::span(src_ip.bytes), sum);
  sum = checksum_accumulate(std::span(dst_ip.bytes), sum);
  sum += static_cast<std::uint32_t>(udp_len);
  sum += kProtoUdp;
  sum = checksum_accumulate(std::span(frame).subspan(udp_start), sum);
  std::uint16_t udp_csum = checksum_finish(sum);
  if (udp_csum == 0) udp_csum = 0xffff;
  frame[udp_start + 6] = static_cast<std::uint8_t>(udp_csum >> 8);
  frame[udp_start + 7] = static_cast<std::uint8_t>(udp_csum);
  return frame;
}

std::optional<ParsedPacket> parse_frame(
    std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < kEthernetHeaderSize) return std::nullopt;
  const std::uint16_t ethertype = get_u16be(frame, 12);
  ParsedPacket pkt;
  std::size_t transport = 0;

  if (ethertype == kEtherTypeIpv4) {
    const std::size_t ip_start = kEthernetHeaderSize;
    if (frame.size() < ip_start + kIpv4MinHeaderSize) return std::nullopt;
    const std::uint8_t version_ihl = frame[ip_start];
    if ((version_ihl >> 4) != 4) return std::nullopt;
    const std::size_t ihl = static_cast<std::size_t>(version_ihl & 0x0f) * 4;
    if (ihl < kIpv4MinHeaderSize || frame.size() < ip_start + ihl) {
      return std::nullopt;
    }
    const std::uint16_t total_len = get_u16be(frame, ip_start + 2);
    if (total_len < ihl || frame.size() < ip_start + total_len) {
      return std::nullopt;
    }
    if (frame[ip_start + 9] != kProtoUdp) return std::nullopt;
    pkt.src.v4 = Ipv4::from_octets(frame[ip_start + 12], frame[ip_start + 13],
                                   frame[ip_start + 14], frame[ip_start + 15]);
    pkt.dst.v4 = Ipv4::from_octets(frame[ip_start + 16], frame[ip_start + 17],
                                   frame[ip_start + 18], frame[ip_start + 19]);
    transport = ip_start + ihl;
  } else if (ethertype == kEtherTypeIpv6) {
    const std::size_t ip_start = kEthernetHeaderSize;
    if (frame.size() < ip_start + kIpv6HeaderSize) return std::nullopt;
    if ((frame[ip_start] >> 4) != 6) return std::nullopt;
    if (frame[ip_start + 6] != kProtoUdp) return std::nullopt;  // no ext hdrs
    pkt.src.is_v6 = true;
    pkt.dst.is_v6 = true;
    for (std::size_t i = 0; i < 16; ++i) {
      pkt.src.v6.bytes[i] = frame[ip_start + 8 + i];
      pkt.dst.v6.bytes[i] = frame[ip_start + 24 + i];
    }
    transport = ip_start + kIpv6HeaderSize;
  } else {
    return std::nullopt;
  }

  if (frame.size() < transport + kUdpHeaderSize) return std::nullopt;
  pkt.src.port = get_u16be(frame, transport);
  pkt.dst.port = get_u16be(frame, transport + 2);
  const std::uint16_t udp_len = get_u16be(frame, transport + 4);
  if (udp_len < kUdpHeaderSize || frame.size() < transport + udp_len) {
    return std::nullopt;
  }
  pkt.payload = frame.subspan(transport + kUdpHeaderSize,
                              udp_len - kUdpHeaderSize);
  return pkt;
}

bool verify_ipv4_checksum(std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() < kEthernetHeaderSize + kIpv4MinHeaderSize) return false;
  if (get_u16be(frame, 12) != kEtherTypeIpv4) return false;
  const std::size_t ip_start = kEthernetHeaderSize;
  const std::size_t ihl = static_cast<std::size_t>(frame[ip_start] & 0x0f) * 4;
  if (frame.size() < ip_start + ihl) return false;
  return inet_checksum(frame.subspan(ip_start, ihl)) == 0;
}

}  // namespace dnsnoise
