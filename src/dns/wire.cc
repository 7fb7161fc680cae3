#include "dns/wire.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "dns/ip.h"

namespace dnsnoise {

namespace {

constexpr std::size_t kHeaderSize = 12;
constexpr std::uint8_t kPointerMask = 0xc0;
constexpr std::size_t kMaxWireNameLength = 255;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Shared compression dictionary: maps a name suffix (presentation form) to
/// the wire offset where it was first written.
using NameOffsets = std::unordered_map<std::string, std::size_t>;

void encode_name(std::vector<std::uint8_t>& out, const DomainName& name,
                 NameOffsets& offsets) {
  const std::size_t n = name.label_count();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string suffix(name.nld_view(n - i));
    if (const auto it = offsets.find(suffix); it != offsets.end()) {
      const auto target = static_cast<std::uint16_t>(it->second);
      put_u16(out, static_cast<std::uint16_t>(0xc000 | target));
      return;
    }
    // Offsets above 0x3fff can't be pointer targets; only record small ones.
    if (out.size() < 0x4000) offsets.emplace(suffix, out.size());
    const std::string_view label = name.label(i);
    out.push_back(static_cast<std::uint8_t>(label.size()));
    out.insert(out.end(), label.begin(), label.end());
  }
  out.push_back(0);  // root label
}

void encode_rdata(std::vector<std::uint8_t>& out, const ResourceRecord& rr,
                  NameOffsets& offsets) {
  // Reserve the RDLENGTH slot, fill rdata, then patch the length.
  put_u16(out, 0);
  const std::size_t rdata_start = out.size();
  switch (rr.type) {
    case RRType::A: {
      const auto ip = parse_ipv4(rr.rdata);
      if (!ip) throw std::invalid_argument("encode: bad A rdata: " + rr.rdata);
      for (const std::uint8_t b : ip->octets()) out.push_back(b);
      break;
    }
    case RRType::AAAA: {
      const auto ip = parse_ipv6(rr.rdata);
      if (!ip) {
        throw std::invalid_argument("encode: bad AAAA rdata: " + rr.rdata);
      }
      out.insert(out.end(), ip->bytes.begin(), ip->bytes.end());
      break;
    }
    case RRType::CNAME:
    case RRType::NS:
    case RRType::PTR: {
      encode_name(out, DomainName(rr.rdata), offsets);
      break;
    }
    case RRType::TXT: {
      // Single character-string chunks of at most 255 bytes.
      std::string_view rest = rr.rdata;
      do {
        const std::size_t chunk = std::min<std::size_t>(rest.size(), 255);
        out.push_back(static_cast<std::uint8_t>(chunk));
        out.insert(out.end(), rest.begin(), rest.begin() + chunk);
        rest.remove_prefix(chunk);
      } while (!rest.empty());
      break;
    }
    default: {
      out.insert(out.end(), rr.rdata.begin(), rr.rdata.end());
      break;
    }
  }
  const std::size_t rdata_len = out.size() - rdata_start;
  out[rdata_start - 2] = static_cast<std::uint8_t>(rdata_len >> 8);
  out[rdata_start - 1] = static_cast<std::uint8_t>(rdata_len);
}

void encode_rr(std::vector<std::uint8_t>& out, const ResourceRecord& rr,
               NameOffsets& offsets) {
  encode_name(out, rr.name, offsets);
  put_u16(out, static_cast<std::uint16_t>(rr.type));
  put_u16(out, 1);  // class IN
  put_u32(out, rr.ttl);
  encode_rdata(out, rr, offsets);
}

/// Bounds-checked big-endian reader over the wire buffer.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> wire) : wire_(wire) {}

  bool read_u8(std::size_t& offset, std::uint8_t& out) const noexcept {
    if (offset + 1 > wire_.size()) return false;
    out = wire_[offset++];
    return true;
  }

  bool read_u16(std::size_t& offset, std::uint16_t& out) const noexcept {
    if (offset + 2 > wire_.size()) return false;
    out = static_cast<std::uint16_t>((wire_[offset] << 8) | wire_[offset + 1]);
    offset += 2;
    return true;
  }

  bool read_u32(std::size_t& offset, std::uint32_t& out) const noexcept {
    if (offset + 4 > wire_.size()) return false;
    out = (std::uint32_t{wire_[offset]} << 24) |
          (std::uint32_t{wire_[offset + 1]} << 16) |
          (std::uint32_t{wire_[offset + 2]} << 8) |
          std::uint32_t{wire_[offset + 3]};
    offset += 4;
    return true;
  }

  std::span<const std::uint8_t> wire() const noexcept { return wire_; }

 private:
  std::span<const std::uint8_t> wire_;
};

std::optional<std::string> decode_name_text(const Reader& reader,
                                            std::size_t& offset) {
  std::string text;
  std::size_t pos = offset;
  bool jumped = false;
  std::size_t after_first_pointer = 0;
  // Compression pointers must strictly decrease, which both terminates the
  // walk and bounds it by the message size.
  std::size_t last_pointer_target = reader.wire().size();
  while (true) {
    std::uint8_t len = 0;
    if (!reader.read_u8(pos, len)) return std::nullopt;
    if ((len & kPointerMask) == kPointerMask) {
      std::size_t tmp = pos - 1;
      std::uint16_t pointer = 0;
      if (!reader.read_u16(tmp, pointer)) return std::nullopt;
      const std::size_t target = pointer & 0x3fff;
      if (target >= last_pointer_target) return std::nullopt;  // loop guard
      last_pointer_target = target;
      if (!jumped) {
        after_first_pointer = tmp;
        jumped = true;
      }
      pos = target;
      continue;
    }
    if ((len & kPointerMask) != 0) return std::nullopt;  // reserved bits
    if (len == 0) break;
    if (pos + len > reader.wire().size()) return std::nullopt;
    if (!text.empty()) text.push_back('.');
    text.append(reinterpret_cast<const char*>(reader.wire().data() + pos), len);
    if (text.size() > kMaxWireNameLength) return std::nullopt;
    pos += len;
  }
  offset = jumped ? after_first_pointer : pos;
  return text;
}

std::optional<ResourceRecord> decode_rr(const Reader& reader,
                                        std::size_t& offset) {
  auto name_text = decode_name_text(reader, offset);
  if (!name_text) return std::nullopt;
  auto name = DomainName::parse(*name_text);
  if (!name) return std::nullopt;
  std::uint16_t type = 0;
  std::uint16_t klass = 0;
  std::uint32_t ttl = 0;
  std::uint16_t rdlength = 0;
  if (!reader.read_u16(offset, type)) return std::nullopt;
  if (!reader.read_u16(offset, klass)) return std::nullopt;
  if (!reader.read_u32(offset, ttl)) return std::nullopt;
  if (!reader.read_u16(offset, rdlength)) return std::nullopt;
  if (offset + rdlength > reader.wire().size()) return std::nullopt;
  const std::size_t rdata_end = offset + rdlength;

  ResourceRecord rr;
  rr.name = std::move(*name);
  rr.type = static_cast<RRType>(type);
  rr.ttl = ttl;
  switch (rr.type) {
    case RRType::A: {
      if (rdlength != 4) return std::nullopt;
      rr.rdata = format_ipv4(Ipv4::from_octets(
          reader.wire()[offset], reader.wire()[offset + 1],
          reader.wire()[offset + 2], reader.wire()[offset + 3]));
      break;
    }
    case RRType::AAAA: {
      if (rdlength != 16) return std::nullopt;
      Ipv6 ip;
      for (std::size_t i = 0; i < 16; ++i)
        ip.bytes[i] = reader.wire()[offset + i];
      rr.rdata = format_ipv6(ip);
      break;
    }
    case RRType::CNAME:
    case RRType::NS:
    case RRType::PTR: {
      std::size_t pos = offset;
      auto target = decode_name_text(reader, pos);
      if (!target || pos > rdata_end) return std::nullopt;
      rr.rdata = std::move(*target);
      break;
    }
    case RRType::TXT: {
      std::size_t pos = offset;
      while (pos < rdata_end) {
        std::uint8_t chunk = 0;
        if (!reader.read_u8(pos, chunk)) return std::nullopt;
        if (pos + chunk > rdata_end) return std::nullopt;
        rr.rdata.append(
            reinterpret_cast<const char*>(reader.wire().data() + pos), chunk);
        pos += chunk;
      }
      break;
    }
    default: {
      rr.rdata.assign(
          reinterpret_cast<const char*>(reader.wire().data() + offset),
          rdlength);
      break;
    }
  }
  offset = rdata_end;
  return rr;
}

}  // namespace

std::vector<std::uint8_t> encode_message(const DnsMessage& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + 64 * (msg.questions.size() + msg.answers.size()));
  put_u16(out, msg.header.id);
  std::uint16_t flags = 0;
  if (msg.header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>((msg.header.opcode & 0x0f) << 11);
  if (msg.header.aa) flags |= 0x0400;
  if (msg.header.tc) flags |= 0x0200;
  if (msg.header.rd) flags |= 0x0100;
  if (msg.header.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(msg.header.rcode) & 0x0f;
  put_u16(out, flags);
  put_u16(out, static_cast<std::uint16_t>(msg.questions.size()));
  put_u16(out, static_cast<std::uint16_t>(msg.answers.size()));
  put_u16(out, static_cast<std::uint16_t>(msg.authority.size()));
  put_u16(out, static_cast<std::uint16_t>(msg.additional.size()));

  NameOffsets offsets;
  for (const Question& q : msg.questions) {
    encode_name(out, q.name, offsets);
    put_u16(out, static_cast<std::uint16_t>(q.type));
    put_u16(out, 1);  // class IN
  }
  for (const ResourceRecord& rr : msg.answers) encode_rr(out, rr, offsets);
  for (const ResourceRecord& rr : msg.authority) encode_rr(out, rr, offsets);
  for (const ResourceRecord& rr : msg.additional) encode_rr(out, rr, offsets);
  return out;
}

std::optional<DomainName> decode_name(std::span<const std::uint8_t> wire,
                                      std::size_t& offset) {
  const Reader reader(wire);
  auto text = decode_name_text(reader, offset);
  if (!text) return std::nullopt;
  return DomainName::parse(*text);
}

std::optional<DnsMessage> decode_message(std::span<const std::uint8_t> wire) {
  const Reader reader(wire);
  std::size_t offset = 0;
  DnsMessage msg;
  std::uint16_t flags = 0;
  std::uint16_t qdcount = 0;
  std::uint16_t ancount = 0;
  std::uint16_t nscount = 0;
  std::uint16_t arcount = 0;
  if (!reader.read_u16(offset, msg.header.id)) return std::nullopt;
  if (!reader.read_u16(offset, flags)) return std::nullopt;
  if (!reader.read_u16(offset, qdcount)) return std::nullopt;
  if (!reader.read_u16(offset, ancount)) return std::nullopt;
  if (!reader.read_u16(offset, nscount)) return std::nullopt;
  if (!reader.read_u16(offset, arcount)) return std::nullopt;
  msg.header.qr = (flags & 0x8000) != 0;
  msg.header.opcode = static_cast<std::uint8_t>((flags >> 11) & 0x0f);
  msg.header.aa = (flags & 0x0400) != 0;
  msg.header.tc = (flags & 0x0200) != 0;
  msg.header.rd = (flags & 0x0100) != 0;
  msg.header.ra = (flags & 0x0080) != 0;
  msg.header.rcode = static_cast<RCode>(flags & 0x0f);

  for (std::uint16_t i = 0; i < qdcount; ++i) {
    auto name_text = decode_name_text(reader, offset);
    if (!name_text) return std::nullopt;
    auto name = DomainName::parse(*name_text);
    if (!name) return std::nullopt;
    std::uint16_t type = 0;
    std::uint16_t klass = 0;
    if (!reader.read_u16(offset, type)) return std::nullopt;
    if (!reader.read_u16(offset, klass)) return std::nullopt;
    msg.questions.push_back({std::move(*name), static_cast<RRType>(type)});
  }
  auto decode_section = [&](std::uint16_t count,
                            std::vector<ResourceRecord>& section) -> bool {
    // The count is untrusted: reserve only what the bytes left can hold.
    // A record takes at least 11 bytes (root name, type, class, TTL and
    // RDLENGTH).
    constexpr std::size_t kMinRecordBytes = 11;
    section.reserve(std::min<std::size_t>(
        count, (reader.wire().size() - offset) / kMinRecordBytes));
    for (std::uint16_t i = 0; i < count; ++i) {
      auto rr = decode_rr(reader, offset);
      if (!rr) return false;
      section.push_back(std::move(*rr));
    }
    return true;
  };
  if (!decode_section(ancount, msg.answers)) return std::nullopt;
  if (!decode_section(nscount, msg.authority)) return std::nullopt;
  if (!decode_section(arcount, msg.additional)) return std::nullopt;
  return msg;
}

}  // namespace dnsnoise
