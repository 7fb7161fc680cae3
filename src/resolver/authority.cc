#include "resolver/authority.h"

#include <algorithm>

#include "util/rng.h"

namespace dnsnoise {

void AuthorityAnswer::add_a(std::uint32_t ttl, Ipv4 ip) {
  CompactRecord& rr = records_.emplace_back();
  rr.owner = qname_;
  rr.type = RRType::A;
  rr.form = RdataForm::kIpv4;
  rr.ttl = ttl;
  const auto octets = ip.octets();
  std::copy(octets.begin(), octets.end(), rr.rdata.begin());
}

void AuthorityAnswer::add_aaaa(std::uint32_t ttl, const Ipv6& ip) {
  CompactRecord& rr = records_.emplace_back();
  rr.owner = qname_;
  rr.type = RRType::AAAA;
  rr.form = RdataForm::kIpv6;
  rr.ttl = ttl;
  rr.rdata = ip.bytes;
}

void AuthorityAnswer::add(RRType type, std::uint32_t ttl,
                          std::string_view rdata) {
  records_.push_back(compact_record(*names_, qname_, type, ttl, rdata));
}

void AuthorityAnswer::add(std::string_view owner, RRType type,
                          std::uint32_t ttl, std::string_view rdata) {
  records_.push_back(compact_record(*names_, owner, type, ttl, rdata));
}

void SyntheticAuthority::register_zone(const DomainName& apex,
                                       Handler handler) {
  const NameId id = apexes_.intern(apex.text());
  if (id == handlers_.size()) {
    handlers_.push_back(std::move(handler));
  } else {
    handlers_[id] = std::move(handler);
  }
  max_apex_labels_ = std::max(max_apex_labels_, apex.label_count());
}

void SyntheticAuthority::resolve(const Question& question, NameId qname,
                                 SimTime now, AuthorityAnswer& out) const {
  out.reset(qname);
  // Longest-suffix (most specific apex) match.  No apex is longer than
  // max_apex_labels_, so longer suffixes cannot match and are not hashed.
  const std::size_t labels =
      std::min(question.name.label_count(), max_apex_labels_);
  for (std::size_t k = labels; k >= 1; --k) {
    const NameId zone = apexes_.find(question.name.nld_view(k));
    if (zone != kInvalidNameId) {
      handlers_[zone](question, now, out);
      return;
    }
  }
}

Ipv4 synthetic_ipv4(std::string_view qname) {
  const std::uint64_t h = mix64(fnv1a64(qname));
  // Stay inside a documentation-friendly /8 to make synthetic data obvious.
  return Ipv4::from_octets(10, static_cast<std::uint8_t>(h >> 16),
                           static_cast<std::uint8_t>(h >> 8),
                           static_cast<std::uint8_t>(h));
}

Ipv6 synthetic_ipv6(std::string_view qname) {
  const std::uint64_t h1 = mix64(fnv1a64(qname));
  const std::uint64_t h2 = mix64(h1);
  Ipv6 ip;
  ip.bytes[0] = 0x20;
  ip.bytes[1] = 0x01;
  ip.bytes[2] = 0x0d;
  ip.bytes[3] = 0xb8;  // 2001:db8::/32 documentation prefix
  for (std::size_t i = 0; i < 6; ++i) {
    ip.bytes[4 + i] = static_cast<std::uint8_t>(h1 >> (i * 8));
    ip.bytes[10 + i] = static_cast<std::uint8_t>(h2 >> (i * 8));
  }
  return ip;
}

std::string synthetic_a_rdata(std::string_view qname) {
  return format_ipv4(synthetic_ipv4(qname));
}

std::string synthetic_aaaa_rdata(std::string_view qname) {
  return format_ipv6(synthetic_ipv6(qname));
}

SyntheticAuthority::Handler SyntheticAuthority::make_flat_a_zone(
    std::uint32_t ttl, bool dnssec_signed) {
  return [ttl, dnssec_signed](const Question& q, SimTime,
                              AuthorityAnswer& out) {
    out.rcode = RCode::NoError;
    out.dnssec_signed = dnssec_signed;
    if (q.type == RRType::AAAA) {
      out.add_aaaa(ttl, synthetic_ipv6(q.name.text()));
    } else {
      out.add_a(ttl, synthetic_ipv4(q.name.text()));
    }
  };
}

}  // namespace dnsnoise
