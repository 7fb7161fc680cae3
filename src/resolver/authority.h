// Synthetic authoritative DNS namespace.
//
// Stands in for "the rest of the Internet" above the RDNS cluster: zone
// handlers are registered at an apex name and answer every question that
// falls under it (longest-suffix match); everything else is NXDOMAIN.
// Handlers are deterministic functions of the question, so the same name
// always resolves to the same rdata — a property the rpDNS deduplication
// experiments rely on.
//
// Answers are written, not returned: a handler fills an AuthorityAnswer
// the caller owns and reuses, with compact records whose names and text
// rdata are interned into the caller's NameTable (the resolving cluster's
// table).  A steady-state cache miss therefore builds no vector, string
// or DomainName.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "dns/ip.h"
#include "dns/message.h"
#include "dns/name_table.h"
#include "dns/rr.h"
#include "util/sim_time.h"

namespace dnsnoise {

/// An authoritative response plus zone-level ground truth used by
/// experiments (never visible to the classifier under test), written into
/// a buffer the caller owns and reuses across questions.
class AuthorityAnswer {
 public:
  /// Names and text rdata are interned into `names`, which must outlive
  /// the answer.
  explicit AuthorityAnswer(NameTable& names) : names_(&names) {}

  RCode rcode = RCode::NXDomain;
  bool dnssec_signed = false;
  bool disposable_zone = false;

  /// Appends an A or AAAA record owned by the question name.
  void add_a(std::uint32_t ttl, Ipv4 ip);
  void add_aaaa(std::uint32_t ttl, const Ipv6& ip);

  /// Appends a record from presentation rdata, owned by the question name
  /// or by `owner` (a normalized name, e.g. a CNAME chain's next link).
  void add(RRType type, std::uint32_t ttl, std::string_view rdata);
  void add(std::string_view owner, RRType type, std::uint32_t ttl,
           std::string_view rdata);

  std::span<const CompactRecord> records() const noexcept { return records_; }

 private:
  friend class SyntheticAuthority;

  /// Empties the answer for a new question whose name is `qname` in the
  /// answer's table: NXDOMAIN, no records, flags clear.  Keeps the buffer.
  void reset(NameId qname) noexcept {
    rcode = RCode::NXDomain;
    dnssec_signed = false;
    disposable_zone = false;
    qname_ = qname;
    records_.clear();
  }

  NameTable* names_;
  NameId qname_ = kInvalidNameId;
  std::vector<CompactRecord> records_;
};

class SyntheticAuthority {
 public:
  /// Writes the zone's answer to the question into `out`, which arrives
  /// reset (NXDOMAIN, empty) for this question.
  using Handler =
      std::function<void(const Question&, SimTime, AuthorityAnswer& out)>;

  /// Registers a zone handler at `apex`.  Re-registering an apex replaces
  /// the previous handler.
  void register_zone(const DomainName& apex, Handler handler);

  /// Resolves a question whose name is `qname` in the table `out` interns
  /// into, writing the answer into `out`: the handler of the most specific
  /// registered apex enclosing the name, else NXDOMAIN.  Probes only
  /// suffixes no longer than the longest apex.  Writes nothing in the
  /// authority, so threads may share one authority once its zones are
  /// registered (handlers must be pure functions of the question, as every
  /// built-in one is).
  void resolve(const Question& question, NameId qname, SimTime now,
               AuthorityAnswer& out) const;

  std::size_t zone_count() const noexcept { return handlers_.size(); }

  /// Deterministic A-record zone: every name under the apex resolves to a
  /// stable pseudo-random address with the given TTL.
  static Handler make_flat_a_zone(std::uint32_t ttl,
                                  bool dnssec_signed = false);

 private:
  NameTable apexes_;               // apex text -> index into handlers_
  std::vector<Handler> handlers_;
  std::size_t max_apex_labels_ = 0;
};

/// Stable pseudo-random IPv4 (inside 10.0.0.0/8) and IPv6 (inside
/// 2001:db8::/32) for a name, shared by zone models.
Ipv4 synthetic_ipv4(std::string_view qname);
Ipv6 synthetic_ipv6(std::string_view qname);

/// Their presentation text.
std::string synthetic_a_rdata(std::string_view qname);
std::string synthetic_aaaa_rdata(std::string_view qname);

}  // namespace dnsnoise
