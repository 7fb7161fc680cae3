#include "dns/public_suffix.h"

#include <algorithm>
#include <stdexcept>

#include "util/strings.h"

namespace dnsnoise {

namespace {

// A compact representative snapshot of the public suffix list.  It covers
// the generic TLDs, the multi-label country suffixes exercised by the
// paper's examples (com.cn, co.uk, ...), PSL wildcard/exception rules, and
// the dynamic-DNS style zones the paper adds on top of Mozilla's list.
constexpr std::string_view kBuiltinRules = R"(
// generic
com
net
org
edu
gov
mil
int
info
biz
name
mobi
io
co
me
tv
cc
us
ca
de
fr
nl
se
no
fi
es
it
ch
at
be
dk
pl
ru
cn
jp
kr
in
br
mx
au
nz
eu
arpa
in-addr.arpa
ip6.arpa
// multi-label country suffixes
co.uk
org.uk
ac.uk
gov.uk
net.uk
me.uk
ltd.uk
plc.uk
sch.uk
com.cn
net.cn
org.cn
gov.cn
edu.cn
ac.cn
com.au
net.au
org.au
edu.au
gov.au
co.jp
ne.jp
or.jp
ac.jp
go.jp
co.kr
or.kr
com.br
net.br
org.br
gov.br
co.in
net.in
org.in
com.mx
co.nz
net.nz
org.nz
com.tw
org.tw
// wildcard + exception rules (PSL grammar exercise)
*.ck
!www.ck
*.bd
*.er
// dynamic-DNS zones (paper: "corrects the omission of dynamic DNS zones")
dyndns.org
no-ip.com
no-ip.org
dynalias.com
homeip.net
duckdns.org
afraid.org
hopto.org
zapto.org
3utilities.com
blogspot.com
appspot.com
herokuapp.com
cloudfront.net
s3.amazonaws.com
)";

}  // namespace

const PublicSuffixList& PublicSuffixList::builtin() {
  static const PublicSuffixList instance = [] {
    PublicSuffixList psl;
    psl.add_rules_text(kBuiltinRules);
    return psl;
  }();
  return instance;
}

void PublicSuffixList::add(const DomainName& name, std::uint8_t kind) {
  std::uint8_t& kinds = rules_[name.text()];
  if ((kinds & kind) == 0) ++rule_count_;
  kinds |= kind;
  max_labels_ = std::max(max_labels_, name.label_count());
}

void PublicSuffixList::add_rule(std::string_view rule) {
  if (rule.empty()) throw std::invalid_argument("PSL: empty rule");
  if (rule.front() == '!') {
    rule.remove_prefix(1);
    add(DomainName(rule), kException);  // validates + normalizes
    return;
  }
  if (starts_with(rule, "*.")) {
    rule.remove_prefix(2);
    add(DomainName(rule), kWildcard);
    return;
  }
  add(DomainName(rule), kExact);
}

void PublicSuffixList::add_rules_text(std::string_view text) {
  for (std::string_view line : split(text, '\n')) {
    // Trim whitespace and skip comments / blanks.
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() &&
           (line.back() == ' ' || line.back() == '\t' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty() || starts_with(line, "//")) continue;
    add_rule(line);
  }
}

std::size_t PublicSuffixList::suffix_label_count(std::string_view name) const {
  if (name.empty()) return 0;
  // PSL semantics: the longest matching rule wins; an exception rule beats
  // a wildcard rule and removes one label from the wildcard's match.
  std::size_t best = 1;  // implicit "*" rule
  std::size_t start = name.size();  // the k-label suffix is name[start..]
  for (std::size_t k = 1; k <= max_labels_ && start != 0; ++k) {
    const std::size_t dot = start < 2 ? std::string_view::npos
                                      : name.rfind('.', start - 2);
    start = dot == std::string_view::npos ? 0 : dot + 1;
    const auto rule = rules_.find(name.substr(start));
    if (rule == rules_.end()) continue;
    if ((rule->second & kException) != 0) {
      // "!www.ck": the public suffix is the part after the exception label.
      return k - 1;
    }
    if ((rule->second & kExact) != 0) best = std::max(best, k);
    if ((rule->second & kWildcard) != 0) {
      // "*.ck" makes <anything>.ck a public suffix (k + 1 labels), and the
      // wildcard parent itself ("ck") is one too.
      best = std::max(best, start == 0 ? k : k + 1);
    }
  }
  return best;
}

DomainName PublicSuffixList::effective_tld(const DomainName& name) const {
  return name.nld(suffix_label_count(name));
}

DomainName PublicSuffixList::registrable_domain(const DomainName& name) const {
  const std::size_t suffix = suffix_label_count(name);
  if (name.label_count() <= suffix) return {};
  return name.nld(suffix + 1);
}

}  // namespace dnsnoise
