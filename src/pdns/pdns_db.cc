#include "pdns/pdns_db.h"

namespace dnsnoise {

void PassiveDnsDb::add_rule(const DisposableGroupRule& rule) {
  rules_[rule.zone].insert(rule.depth);
}

std::size_t PassiveDnsDb::rule_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [zone, depths] : rules_) n += depths.size();
  return n;
}

const std::string* PassiveDnsDb::match_rule(const DomainName& qname) const {
  const std::size_t depth = qname.label_count();
  // A rule's zone is a proper suffix of the names it covers.
  if (depth < 2) return nullptr;
  // Walk enclosing zones from most to least specific; a rule matches when
  // the group depth equals the name's own depth.
  for (std::size_t k = depth - 1; k >= 1; --k) {
    const auto it = rules_.find(qname.nld_view(k));
    if (it != rules_.end() && it->second.contains(depth)) {
      return &it->first;
    }
  }
  return nullptr;
}

std::string PassiveDnsDb::stored_name(const DomainName& qname) const {
  if (!folding_) return qname.text();
  const std::string* zone = match_rule(qname);
  if (zone == nullptr) return qname.text();
  return "*." + *zone;
}

bool PassiveDnsDb::add(const DomainName& qname, RRType qtype,
                       const std::string& rdata, std::int64_t day) {
  std::string name = stored_name(qname);
  if (folding_ && !name.empty() && name.front() == '*') ++folded_additions_;
  return store_.add(RRKey{std::move(name), qtype, rdata}, day);
}

}  // namespace dnsnoise
