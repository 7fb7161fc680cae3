// Test helper: resolves one question against an authority and returns the
// answer in presentation form, through the same conversion the edges use.
#pragma once

#include <vector>

#include "dns/name_table.h"
#include "dns/rr.h"
#include "resolver/authority.h"

namespace dnsnoise {

/// An authority answer in presentation form.
struct ResolvedAnswer {
  RCode rcode = RCode::NXDomain;
  bool dnssec_signed = false;
  bool disposable_zone = false;
  std::vector<ResourceRecord> answers;
};

inline ResolvedAnswer resolve(const SyntheticAuthority& authority,
                              const Question& question, SimTime now = 0) {
  NameTable names;
  AuthorityAnswer out(names);
  authority.resolve(question, names.intern(question.name.text()), now, out);
  ResolvedAnswer answer;
  answer.rcode = out.rcode;
  answer.dnssec_signed = out.dnssec_signed;
  answer.disposable_zone = out.disposable_zone;
  to_resource_records(out.records(), names, answer.answers);
  return answer;
}

}  // namespace dnsnoise
