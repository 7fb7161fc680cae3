// Synthetic authoritative DNS namespace.
//
// Stands in for "the rest of the Internet" above the RDNS cluster: zone
// handlers are registered at an apex name and answer every question that
// falls under it (longest-suffix match); everything else is NXDOMAIN.
// Handlers are deterministic functions of the question, so the same name
// always resolves to the same rdata — a property the rpDNS deduplication
// experiments rely on.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "dns/message.h"
#include "dns/rr.h"
#include "util/sim_time.h"
#include "util/strings.h"

namespace dnsnoise {

/// An authoritative response plus zone-level ground truth used by
/// experiments (never visible to the classifier under test).
struct AuthorityAnswer {
  RCode rcode = RCode::NXDomain;
  std::vector<ResourceRecord> answers;
  bool dnssec_signed = false;
  bool disposable_zone = false;
};

class SyntheticAuthority {
 public:
  using Handler = std::function<AuthorityAnswer(const Question&, SimTime)>;

  /// Registers a zone handler at `apex`.  Re-registering an apex replaces
  /// the previous handler.
  void register_zone(const DomainName& apex, Handler handler);

  /// Resolves a question: the handler of the most specific registered apex
  /// enclosing qname, else NXDOMAIN.  Writes nothing, so threads may share
  /// one authority once its zones are registered (handlers must be pure
  /// functions of the question, as every built-in one is).
  AuthorityAnswer resolve(const Question& question, SimTime now) const;

  std::size_t zone_count() const noexcept { return zones_.size(); }

  /// Deterministic A-record zone: every name under the apex resolves to a
  /// stable pseudo-random address with the given TTL.
  static Handler make_flat_a_zone(std::uint32_t ttl,
                                  bool dnssec_signed = false);

 private:
  std::unordered_map<std::string, Handler, StringHash, std::equal_to<>>
      zones_;
};

/// Stable pseudo-random IPv4 for a name (public, shared by zone models).
std::string synthetic_a_rdata(std::string_view qname);

/// Stable pseudo-random IPv6 for a name.
std::string synthetic_aaaa_rdata(std::string_view qname);

}  // namespace dnsnoise
