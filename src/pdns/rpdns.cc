#include "pdns/rpdns.h"

#include <algorithm>

namespace dnsnoise {

namespace {
// Fixed bookkeeping cost per stored record: hash-table slot, type tag,
// first-seen date.  Matches the flat layout a production pDNS-DB would use.
constexpr std::uint64_t kRecordOverheadBytes = 24;
}  // namespace

bool RpDnsDataset::add(const RRKey& key, std::int64_t day) {
  const auto [it, inserted] = records_.try_emplace(key, RpDnsRecord{day});
  if (inserted) {
    ++new_per_day_[day];
    storage_bytes_ +=
        kRecordOverheadBytes + key.name.size() + key.rdata.size();
  }
  return inserted;
}

std::uint64_t RpDnsDataset::new_records_on(std::int64_t day) const {
  const auto it = new_per_day_.find(day);
  return it == new_per_day_.end() ? 0 : it->second;
}

std::int64_t RpDnsDataset::first_seen(const RRKey& key) const {
  const auto it = records_.find(key);
  return it == records_.end() ? -1 : it->second.first_seen_day;
}

std::vector<std::int64_t> RpDnsDataset::days() const {
  std::vector<std::int64_t> out;
  out.reserve(new_per_day_.size());
  for (const auto& [day, count] : new_per_day_) out.push_back(day);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dnsnoise
