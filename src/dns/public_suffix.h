// Effective-TLD (public suffix) resolution.
//
// The paper (Section III-B) splits names at the *delegation* boundary rather
// than the lexical dot: "com.cn" and "co.uk" are effective TLDs because
// every child under them is a separate registrant, and the authors extend
// Mozilla's public suffix list with dynamic-DNS zones.  We implement the PSL
// grammar — normal rules, wildcard rules ("*.ck"), and exception rules
// ("!www.ck") — with an embedded representative snapshot that can be
// extended at runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "dns/name.h"
#include "util/strings.h"

namespace dnsnoise {

class PublicSuffixList {
 public:
  /// Empty list; everything falls back to the single rightmost label ("*").
  PublicSuffixList() = default;

  /// The built-in snapshot: gTLDs/ccTLDs with multi-label suffixes and the
  /// dynamic-DNS additions the paper describes.  Shared immutable instance.
  static const PublicSuffixList& builtin();

  /// Adds one rule in PSL syntax: "com", "co.uk", "*.ck", "!www.ck".
  /// Throws std::invalid_argument for malformed rules.
  void add_rule(std::string_view rule);

  /// Parses newline-separated PSL text; '//' comments and blanks ignored.
  void add_rules_text(std::string_view text);

  std::size_t rule_count() const noexcept { return rule_count_; }

  /// Number of labels in the effective TLD of `name` (the "public suffix").
  /// A name that *is* a public suffix returns its own label count.  Names
  /// with no matching rule use the default "*" rule (rightmost label).
  std::size_t suffix_label_count(const DomainName& name) const {
    return suffix_label_count(name.text());
  }
  /// Same for a name's text, which must be normalized (DomainName::text());
  /// the rules are probed with views of it, so this never allocates.
  std::size_t suffix_label_count(std::string_view name) const;

  /// The effective TLD of `name` (paper's TLD(d)), e.g. "co.uk".
  DomainName effective_tld(const DomainName& name) const;

  /// The registrable domain: effective TLD plus one label (paper's
  /// "effective 2LD").  Returns an empty name when `name` is itself a
  /// public suffix or shorter.
  DomainName registrable_domain(const DomainName& name) const;

 private:
  /// Rule kinds of one suffix (bits of rules_'s values).
  static constexpr std::uint8_t kExact = 1;
  static constexpr std::uint8_t kWildcard = 2;   // "*.ck" stored as "ck"
  static constexpr std::uint8_t kException = 4;  // "!www.ck" as "www.ck"

  /// Marks `name`'s suffix text with `kind`.
  void add(const DomainName& name, std::uint8_t kind);

  // Rules are keyed by normalized suffix text without the marker chars, so
  // each suffix of a name costs one probe.
  std::unordered_map<std::string, std::uint8_t, StringHash, std::equal_to<>>
      rules_;
  std::size_t rule_count_ = 0;
  std::size_t max_labels_ = 0;  // of any key: longer suffixes match nothing
};

}  // namespace dnsnoise
