#include "features/chr.h"

namespace dnsnoise {

CacheHitRateTracker::CacheHitRateTracker() {
  slots_.assign(256, 0);
  slot_mask_ = 255;
}

void CacheHitRateTracker::grow_slots(std::size_t min_slots) {
  std::size_t n = slots_.size();
  while (n < min_slots) n <<= 1;
  std::vector<std::uint32_t> fresh(n, 0);
  const std::size_t mask = n - 1;
  for (const std::uint32_t ref : slots_) {
    if (ref == 0) continue;
    std::size_t i = static_cast<std::size_t>(hashes_[ref - 1]) & mask;
    while (fresh[i] != 0) i = (i + 1) & mask;
    fresh[i] = ref;
  }
  slots_.swap(fresh);
  slot_mask_ = mask;
}

CacheHitRateTracker::Counts& CacheHitRateTracker::entry_for(
    std::string_view name, RRType type, std::string_view rdata) {
  const std::uint64_t h = rr_hash(name, type, rdata);
  std::size_t i = static_cast<std::size_t>(h) & slot_mask_;
  while (true) {
    const std::uint32_t ref = slots_[i];
    if (ref == 0) break;
    const std::uint32_t idx = ref - 1;
    if (hashes_[idx] == h) {
      const RRKey& key = entries_[idx].first;
      if (key.type == type && name == key.name && rdata == key.rdata) {
        return entries_[idx].second;
      }
    }
    i = (i + 1) & slot_mask_;
  }
  // First observation: materialize the key, keep slot load below 7/8.
  if (entries_.size() + 1 + (entries_.size() + 1) / 7 >= slots_.size()) {
    grow_slots(slots_.size() * 2);
    i = static_cast<std::size_t>(h) & slot_mask_;
    while (slots_[i] != 0) i = (i + 1) & slot_mask_;
  }
  const auto idx = static_cast<std::uint32_t>(entries_.size());
  entries_.emplace_back(RRKey{std::string(name), type, std::string(rdata)},
                        Counts{});
  hashes_.push_back(h);
  slots_[i] = idx + 1;
  const NameId id = names_.intern(name);
  if (id >= by_name_.size()) by_name_.resize(id + 1);
  by_name_[id].push_back(idx);
  return entries_.back().second;
}

bool CacheHitRateTracker::record_below(std::string_view name, RRType type,
                                       std::string_view rdata,
                                       std::uint32_t ttl) {
  Counts& counts = entry_for(name, type, rdata);
  if (counts.below + counts.above == 0) counts.ttl = ttl;
  return counts.below++ == 0;
}

void CacheHitRateTracker::record_above(std::string_view name, RRType type,
                                       std::string_view rdata,
                                       std::uint32_t ttl) {
  Counts& counts = entry_for(name, type, rdata);
  if (counts.below + counts.above == 0) counts.ttl = ttl;
  ++counts.above;
}

void CacheHitRateTracker::merge_from(const CacheHitRateTracker& other) {
  for (const auto& [key, src] : other.entries_) {
    Counts& dst = entry_for(key.name, key.type, key.rdata);
    if (dst.below + dst.above == 0) dst.ttl = src.ttl;
    dst.below += src.below;
    dst.above += src.above;
  }
}

const CacheHitRateTracker::Counts* CacheHitRateTracker::find(
    const RRKey& key) const {
  const std::uint64_t h = rr_hash(key.name, key.type, key.rdata);
  std::size_t i = static_cast<std::size_t>(h) & slot_mask_;
  while (true) {
    const std::uint32_t ref = slots_[i];
    if (ref == 0) return nullptr;
    const std::uint32_t idx = ref - 1;
    if (hashes_[idx] == h) {
      const RRKey& stored = entries_[idx].first;
      if (stored.type == key.type && stored.name == key.name &&
          stored.rdata == key.rdata) {
        return &entries_[idx].second;
      }
    }
    i = (i + 1) & slot_mask_;
  }
}

double CacheHitRateTracker::dhr(const Counts& counts) noexcept {
  if (counts.below == 0) return 0.0;
  if (counts.above >= counts.below) return 0.0;
  return static_cast<double>(counts.below - counts.above) /
         static_cast<double>(counts.below);
}

std::span<const std::uint32_t> CacheHitRateTracker::rrs_of_name(
    std::string_view name) const {
  const NameId id = names_.find(name);
  if (id == kInvalidNameId || id >= by_name_.size()) return {};
  return by_name_[id];
}

std::vector<double> CacheHitRateTracker::all_dhr() const {
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const auto& [key, counts] : entries_) out.push_back(dhr(counts));
  return out;
}

std::vector<double> CacheHitRateTracker::chr_distribution() const {
  std::vector<double> out;
  for (const auto& [key, counts] : entries_) {
    const double rate = dhr(counts);
    for (std::uint64_t i = 0; i < counts.above; ++i) out.push_back(rate);
  }
  return out;
}

}  // namespace dnsnoise
