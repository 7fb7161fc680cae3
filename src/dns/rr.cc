#include "dns/rr.h"

#include <cstring>

#include "dns/ip.h"

namespace dnsnoise {

std::string_view to_string(RRType type) noexcept {
  switch (type) {
    case RRType::A: return "A";
    case RRType::NS: return "NS";
    case RRType::CNAME: return "CNAME";
    case RRType::SOA: return "SOA";
    case RRType::PTR: return "PTR";
    case RRType::MX: return "MX";
    case RRType::TXT: return "TXT";
    case RRType::AAAA: return "AAAA";
    case RRType::OPT: return "OPT";
    case RRType::DS: return "DS";
    case RRType::RRSIG: return "RRSIG";
    case RRType::NSEC: return "NSEC";
    case RRType::DNSKEY: return "DNSKEY";
  }
  return "UNKNOWN";
}

std::string_view to_string(RCode rcode) noexcept {
  switch (rcode) {
    case RCode::NoError: return "NOERROR";
    case RCode::FormErr: return "FORMERR";
    case RCode::ServFail: return "SERVFAIL";
    case RCode::NXDomain: return "NXDOMAIN";
    case RCode::NotImp: return "NOTIMP";
    case RCode::Refused: return "REFUSED";
  }
  return "UNKNOWN";
}

namespace {

/// Stores A/AAAA text as wire bytes when it formats back to itself; false
/// leaves `rr` untouched (the rdata stays text).
bool store_wire(CompactRecord& rr, std::string_view rdata) {
  if (rr.type == RRType::A) {
    const auto ip = parse_ipv4(rdata);
    if (!ip) return false;
    std::string canonical;  // at most 15 characters: no heap
    append_ipv4(canonical, *ip);
    if (canonical != rdata) return false;
    const auto octets = ip->octets();
    std::memcpy(rr.rdata.data(), octets.data(), octets.size());
    rr.form = RdataForm::kIpv4;
    return true;
  }
  if (rr.type == RRType::AAAA) {
    const auto ip = parse_ipv6(rdata);
    if (!ip || format_ipv6(*ip) != rdata) return false;
    rr.rdata = ip->bytes;
    rr.form = RdataForm::kIpv6;
    return true;
  }
  return false;
}

}  // namespace

void append_rdata_text(std::string& out, const CompactRecord& rr,
                       const NameTable& names) {
  switch (rr.form) {
    case RdataForm::kIpv4:
      append_ipv4(out, Ipv4::from_octets(rr.rdata[0], rr.rdata[1],
                                         rr.rdata[2], rr.rdata[3]));
      return;
    case RdataForm::kIpv6:
      append_ipv6(out, Ipv6{rr.rdata});
      return;
    case RdataForm::kText:
      out += names.name(rr.text());
      return;
  }
}

CompactRecord compact_record(NameTable& names, NameId owner, RRType type,
                             std::uint32_t ttl, std::string_view rdata) {
  CompactRecord rr;
  rr.owner = owner;
  rr.type = type;
  rr.ttl = ttl;
  if (!store_wire(rr, rdata)) rr.set_text(names.intern(rdata));
  return rr;
}

CompactRecord compact_record(NameTable& names, std::string_view owner,
                             RRType type, std::uint32_t ttl,
                             std::string_view rdata) {
  return compact_record(names, names.intern(owner), type, ttl, rdata);
}

bool find_compact_record(const NameTable& names, std::string_view owner,
                         RRType type, std::string_view rdata,
                         CompactRecord& out) {
  out = CompactRecord{};
  out.owner = names.find(owner);
  out.type = type;
  if (out.owner == kInvalidNameId) return false;
  if (store_wire(out, rdata)) return true;
  const NameId text = names.find(rdata);
  if (text == kInvalidNameId) return false;
  out.set_text(text);
  return true;
}

ResourceRecord to_resource_record(const CompactRecord& rr,
                                  const NameTable& names) {
  ResourceRecord out;
  // Interned owners are normalized names, so the parse cannot fail.
  out.name.assign(names.name(rr.owner));
  out.type = rr.type;
  out.ttl = rr.ttl;
  append_rdata_text(out.rdata, rr, names);
  return out;
}

void to_resource_records(std::span<const CompactRecord> records,
                         const NameTable& names,
                         std::vector<ResourceRecord>& out) {
  out.clear();
  out.reserve(records.size());
  for (const CompactRecord& rr : records) {
    out.push_back(to_resource_record(rr, names));
  }
}

RRKey to_rr_key(const CompactRecord& rr, const NameTable& names) {
  RRKey key;
  key.name = names.name(rr.owner);
  key.type = rr.type;
  append_rdata_text(key.rdata, rr, names);
  return key;
}

std::uint64_t rr_hash(const CompactRecord& rr, const NameTable& names) {
  std::uint64_t rdata = 0;
  switch (rr.form) {
    case RdataForm::kText:
      rdata = names.name_hash(rr.text());
      break;
    case RdataForm::kIpv4:
    case RdataForm::kIpv6: {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      std::memcpy(&lo, rr.rdata.data(), 8);
      std::memcpy(&hi, rr.rdata.data() + 8, 8);
      rdata = mix64(lo ^ mix64(hi + static_cast<std::uint64_t>(rr.form)));
      break;
    }
  }
  return mix64(names.name_hash(rr.owner) ^
               mix64(static_cast<std::uint64_t>(rr.type) + 0x9e3779b9u) ^
               (rdata * 0x9e3779b97f4a7c15ull));
}

}  // namespace dnsnoise
