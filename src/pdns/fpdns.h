// Full passive DNS (fpDNS) dataset.
//
// Mirrors the paper's Section III-A: each entry is one answer resource
// record observed at the monitoring point — timestamp (second granularity),
// anonymized client ID, queried name, query type, TTL and RDATA — plus the
// tap direction and rcode so the traffic-volume analyses (Fig. 2) can
// separate below/above and NXDOMAIN streams.  NXDOMAIN responses carry no
// RRs and are stored as a single empty-rdata entry.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dns/name_table.h"
#include "dns/rr.h"
#include "util/sim_time.h"

namespace dnsnoise {

/// Tap side; duplicated from netio to keep pdns independent of the packet
/// stack (the two enums convert by value).
enum class FpDirection : std::uint8_t {
  kBelow = 0,
  kAbove = 1,
};

struct FpDnsEntry {
  SimTime ts = 0;
  std::uint64_t client_id = 0;  // 0 for above-tap entries
  FpDirection direction = FpDirection::kBelow;
  RCode rcode = RCode::NoError;
  std::string qname;
  RRType qtype = RRType::A;
  std::uint32_t ttl = 0;
  std::string rdata;  // empty for unsuccessful resolutions

  bool successful() const noexcept { return rcode == RCode::NoError; }

  friend bool operator==(const FpDnsEntry&, const FpDnsEntry&) = default;
};

/// In-memory fpDNS dataset with binary (de)serialization.
class FpDnsDataset {
 public:
  void add(FpDnsEntry entry) { entries_.push_back(std::move(entry)); }

  /// Appends one entry per answer RR of a response (or a single entry for
  /// an unsuccessful or empty one), the paper's flattening of responses
  /// into RR tuples.  `qname` and every id of `answers` resolve through
  /// `names`.
  void add_response(SimTime ts, std::uint64_t client_id,
                    FpDirection direction, const NameTable& names,
                    NameId qname, RRType qtype, RCode rcode,
                    std::span<const CompactRecord> answers);

  /// Appends every entry of `other` (shard merging).  Shards record
  /// time-ordered slices of interleaved client populations, so call
  /// stable_sort_by_time() once after the last append to restore the
  /// chronological order a single tap would have produced.
  void append(const FpDnsDataset& other) {
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
  }

  /// Stable time sort: entries with equal timestamps keep their append
  /// order, so merging shards in shard order stays deterministic.
  void stable_sort_by_time();

  std::span<const FpDnsEntry> entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Binary serialization (little-endian, length-prefixed strings).
  /// deserialize() throws std::invalid_argument on a bad magic or short
  /// input, an entry count the input cannot hold included.
  std::vector<std::uint8_t> serialize() const;
  static FpDnsDataset deserialize(std::span<const std::uint8_t> bytes);

  /// load() throws std::runtime_error for a path that is not a readable
  /// regular file (read_file).
  void save(const std::string& path) const;
  static FpDnsDataset load(const std::string& path);

 private:
  std::vector<FpDnsEntry> entries_;
};

}  // namespace dnsnoise
