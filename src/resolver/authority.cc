#include "resolver/authority.h"

#include "dns/ip.h"
#include "util/rng.h"

namespace dnsnoise {

void SyntheticAuthority::register_zone(const DomainName& apex,
                                       Handler handler) {
  zones_[apex.text()] = std::move(handler);
}

AuthorityAnswer SyntheticAuthority::resolve(const Question& question,
                                            SimTime now) const {
  // Longest-suffix (most specific apex) match, probing with views of the
  // qname's suffixes.
  const std::size_t labels = question.name.label_count();
  for (std::size_t k = labels; k >= 1; --k) {
    if (const auto it = zones_.find(question.name.nld_view(k));
        it != zones_.end()) {
      return it->second(question, now);
    }
  }
  return AuthorityAnswer{};
}

std::string synthetic_a_rdata(std::string_view qname) {
  const std::uint64_t h = mix64(fnv1a64(qname));
  // Stay inside a documentation-friendly /8 to make synthetic data obvious.
  const Ipv4 ip = Ipv4::from_octets(
      10, static_cast<std::uint8_t>(h >> 16),
      static_cast<std::uint8_t>(h >> 8), static_cast<std::uint8_t>(h));
  return format_ipv4(ip);
}

std::string synthetic_aaaa_rdata(std::string_view qname) {
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
  return format_ipv6(ip);
}

SyntheticAuthority::Handler SyntheticAuthority::make_flat_a_zone(
    std::uint32_t ttl, bool dnssec_signed) {
  return [ttl, dnssec_signed](const Question& q, SimTime) {
    AuthorityAnswer answer;
    answer.rcode = RCode::NoError;
    answer.dnssec_signed = dnssec_signed;
    ResourceRecord rr;
    rr.name = q.name;
    rr.ttl = ttl;
    if (q.type == RRType::AAAA) {
      rr.type = RRType::AAAA;
      rr.rdata = synthetic_aaaa_rdata(q.name.text());
    } else {
      rr.type = RRType::A;
      rr.rdata = synthetic_a_rdata(q.name.text());
    }
    answer.answers.push_back(std::move(rr));
    return answer;
  };
}

}  // namespace dnsnoise
