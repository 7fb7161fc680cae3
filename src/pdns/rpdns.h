// Reduced passive DNS (rpDNS) dataset: distinct resource records from
// successful resolutions, tagged with the first date each was seen
// (Section III-A).  The Fig. 5 / Fig. 15 analyses ride on the per-day
// new-RR counters this class maintains.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/rr.h"
#include "util/sim_time.h"

namespace dnsnoise {

struct RpDnsRecord {
  std::int64_t first_seen_day = 0;
};

class RpDnsDataset {
 public:
  /// Records one successful resolution RR observed on `day`.  Returns true
  /// if the RR was new (never seen on any previous day).
  bool add(const RRKey& key, std::int64_t day);

  /// Total distinct RRs accumulated.
  std::size_t unique_records() const noexcept { return records_.size(); }

  /// Distinct RRs first seen on `day` (0 if the day saw none).
  std::uint64_t new_records_on(std::int64_t day) const;

  /// First-seen day for a record, or -1 if absent.
  std::int64_t first_seen(const RRKey& key) const;

  /// Days with at least one new record, ascending.
  std::vector<std::int64_t> days() const;

  /// Visits every (RRKey, RpDnsRecord).
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (const auto& [key, record] : records_) visit(key, record);
  }

  /// Approximate storage footprint in bytes (names + rdata + bookkeeping),
  /// the paper's §VI-C pDNS-DB storage-cost measure.
  std::uint64_t storage_bytes() const noexcept { return storage_bytes_; }

 private:
  std::unordered_map<RRKey, RpDnsRecord> records_;
  std::unordered_map<std::int64_t, std::uint64_t> new_per_day_;
  std::uint64_t storage_bytes_ = 0;
};

}  // namespace dnsnoise
