// Resource records and related enums.
//
// The fpDNS dataset entry (Section III-A) carries the queried name, query
// type, TTL and RDATA; the rpDNS dataset deduplicates on the (name, type,
// rdata) triple.  RRKey captures that dedup identity.
//
// Two representations: ResourceRecord is the presentation form (owned
// name, rdata text) spoken at the edges — wire codec, pcap, fpDNS/rpDNS
// feeds, examples.  CompactRecord is the 28-byte form the answer path
// carries from authority through cache and tap to capture (DESIGN.md
// §11.3): names are NameTable ids, A/AAAA rdata are wire bytes.  The
// conversions between them below are the only ones, and they round-trip
// every rdata text exactly.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/name.h"
#include "dns/name_table.h"
#include "util/rng.h"

namespace dnsnoise {

/// DNS RR types used in this codebase (the paper's dataset contains A,
/// CNAME and AAAA answers; the DNSSEC types appear in the Section VI-B cost
/// model).
enum class RRType : std::uint16_t {
  A = 1,
  NS = 2,
  CNAME = 5,
  SOA = 6,
  PTR = 12,
  MX = 15,
  TXT = 16,
  AAAA = 28,
  OPT = 41,
  DS = 43,
  RRSIG = 46,
  NSEC = 47,
  DNSKEY = 48,
};

/// Response codes (RFC 1035 / 2308).
enum class RCode : std::uint8_t {
  NoError = 0,
  FormErr = 1,
  ServFail = 2,
  NXDomain = 3,
  NotImp = 4,
  Refused = 5,
};

std::string_view to_string(RRType type) noexcept;
std::string_view to_string(RCode rcode) noexcept;

/// A resource record.  `rdata` holds the presentation form: a dotted quad
/// for A, compressed hex groups for AAAA, a domain name for CNAME/NS/PTR,
/// free text otherwise.
struct ResourceRecord {
  DomainName name;
  RRType type = RRType::A;
  std::uint32_t ttl = 0;
  std::string rdata;

  friend bool operator==(const ResourceRecord&,
                         const ResourceRecord&) = default;
};

/// Identity of an RR for caching and deduplication: (name, type, rdata).
/// TTL is excluded on purpose — a re-announced record with a fresh TTL is
/// the *same* record for both the cache and the rpDNS dataset.
struct RRKey {
  std::string name;
  RRType type = RRType::A;
  std::string rdata;

  RRKey() = default;
  RRKey(std::string name_in, RRType type_in, std::string rdata_in)
      : name(std::move(name_in)), type(type_in), rdata(std::move(rdata_in)) {}

  friend bool operator==(const RRKey&, const RRKey&) = default;
};

/// How a CompactRecord holds its rdata.
enum class RdataForm : std::uint8_t {
  kText,  // the NameId of the presentation text
  kIpv4,  // 4 wire bytes (an A record)
  kIpv6,  // 16 wire bytes (an AAAA record)
};

/// A resource record in compact form: the owner is a NameId of some
/// NameTable, A and AAAA rdata are their 4 or 16 wire bytes, and any other
/// rdata — including A/AAAA text that would not format back to the same
/// text, such as "010.0.0.1" — is the NameId of its text in the same
/// table.  Trivially copyable; ids are only meaningful with their table.
struct CompactRecord {
  NameId owner = kInvalidNameId;
  RRType type = RRType::A;
  RdataForm form = RdataForm::kText;
  std::uint32_t ttl = 0;
  std::array<std::uint8_t, 16> rdata{};

  /// The rdata text's id (form kText only).
  NameId text() const noexcept {
    NameId id;
    std::memcpy(&id, rdata.data(), sizeof(id));
    return id;
  }
  void set_text(NameId id) noexcept {
    rdata = {};
    std::memcpy(rdata.data(), &id, sizeof(id));
    form = RdataForm::kText;
  }

  /// Same RR identity (owner, type, rdata) in the same table; the TTL is
  /// not part of it (see RRKey).
  bool same_rr(const CompactRecord& other) const noexcept {
    return owner == other.owner && type == other.type &&
           form == other.form && rdata == other.rdata;
  }
};

/// The compact form of a presentation record, interning the owner and any
/// text rdata into `names`.  A and AAAA text become wire bytes only when
/// they format back to exactly `rdata`, so to_resource_record() returns
/// the original text whatever it was.
CompactRecord compact_record(NameTable& names, std::string_view owner,
                             RRType type, std::uint32_t ttl,
                             std::string_view rdata);

/// compact_record() for an owner already interned in `names`.
CompactRecord compact_record(NameTable& names, NameId owner, RRType type,
                             std::uint32_t ttl, std::string_view rdata);

/// compact_record() without interning, for lookups: false when `names`
/// lacks the owner or the rdata text (so no record there can match).
bool find_compact_record(const NameTable& names, std::string_view owner,
                         RRType type, std::string_view rdata,
                         CompactRecord& out);

/// The presentation forms of compact records resolved through `names`.
void append_rdata_text(std::string& out, const CompactRecord& rr,
                       const NameTable& names);
ResourceRecord to_resource_record(const CompactRecord& rr,
                                  const NameTable& names);
void to_resource_records(std::span<const CompactRecord> records,
                         const NameTable& names,
                         std::vector<ResourceRecord>& out);
RRKey to_rr_key(const CompactRecord& rr, const NameTable& names);

/// Hash of an RR identity built from the table's stored text hashes, so
/// the same RR hashes alike in every table (merges reuse stored hashes).
std::uint64_t rr_hash(const CompactRecord& rr, const NameTable& names);

}  // namespace dnsnoise

template <>
struct std::hash<dnsnoise::RRKey> {
  std::size_t operator()(const dnsnoise::RRKey& k) const noexcept {
    std::uint64_t h = dnsnoise::fnv1a64(k.name);
    h = dnsnoise::mix64(h ^ static_cast<std::uint64_t>(k.type));
    h ^= dnsnoise::fnv1a64(k.rdata);
    return static_cast<std::size_t>(dnsnoise::mix64(h));
  }
};
