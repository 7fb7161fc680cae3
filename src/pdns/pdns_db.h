// Passive DNS database with optional wildcard aggregation.
//
// Section VI-C: disposable domains bloat pDNS-DB storage; the paper's
// proposed mitigation replaces each disposable name by a wildcard under its
// disposable zone ("1022vr5.dns.xx.fbcdn.net" -> "*.dns.xx.fbcdn.net"),
// which collapsed 129,674,213 distinct disposable RRs into 945,065 (0.7%).
// PassiveDnsDb implements both the raw store and the folding store; the
// §VI-C bench compares them.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "dns/name.h"
#include "dns/rr.h"
#include "pdns/rpdns.h"
#include "util/strings.h"

namespace dnsnoise {

/// A mined disposable group: names of exactly `depth` labels under `zone`
/// (the output pairs of the paper's Algorithm 1).
struct DisposableGroupRule {
  std::string zone;   // normalized zone text
  std::size_t depth;  // total label count of names in the group

  friend bool operator==(const DisposableGroupRule&,
                         const DisposableGroupRule&) = default;
};

class PassiveDnsDb {
 public:
  explicit PassiveDnsDb(bool wildcard_folding = false)
      : folding_(wildcard_folding) {}

  /// Installs a disposable-group rule; names matching any rule are folded
  /// when wildcard folding is enabled.
  void add_rule(const DisposableGroupRule& rule);
  std::size_t rule_count() const noexcept;

  /// True when a rule covers `qname`: a rule's zone is a proper suffix of
  /// it, the root excluded, and the rule's depth is its label count.
  bool matches_rule(const DomainName& qname) const {
    return match_rule(qname) != nullptr;
  }

  /// Returns the stored form of `qname`: "*.<zone>" when a rule matches and
  /// folding is on, the name itself otherwise.
  std::string stored_name(const DomainName& qname) const;

  /// Records one successful resolution RR on `day`; returns true when it
  /// created a new database record (after folding, if enabled).
  bool add(const DomainName& qname, RRType qtype, const std::string& rdata,
           std::int64_t day);

  std::size_t unique_records() const noexcept {
    return store_.unique_records();
  }
  std::uint64_t storage_bytes() const noexcept {
    return store_.storage_bytes();
  }
  std::uint64_t new_records_on(std::int64_t day) const {
    return store_.new_records_on(day);
  }
  /// RR additions that were folded into a wildcard record.
  std::uint64_t folded_additions() const noexcept { return folded_additions_; }
  const RpDnsDataset& store() const noexcept { return store_; }

 private:
  bool folding_;
  // zone text -> set of group depths mined as disposable under it; probed
  // with string_view suffixes.
  std::unordered_map<std::string, std::unordered_set<std::size_t>, StringHash,
                     std::equal_to<>>
      rules_;
  RpDnsDataset store_;
  std::uint64_t folded_additions_ = 0;

  /// The matching rule's zone for `qname`, or nullptr.
  const std::string* match_rule(const DomainName& qname) const;
};

}  // namespace dnsnoise
