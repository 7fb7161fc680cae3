#include "features/chr.h"

namespace dnsnoise {

CacheHitRateTracker::CacheHitRateTracker(NameTable& names) : names_(&names) {
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

void CacheHitRateTracker::reserve(std::size_t rrs, std::size_t names) {
  entries_.reserve(rrs);
  hashes_.reserve(rrs);
  next_.reserve(rrs);
  chains_.reserve(names);
  // The slot load stays below 7/8 up to `rrs` (entry_for's trigger).
  const std::size_t slots = rrs + rrs / 7 + 2;
  if (slots > slots_.size()) grow_slots(slots);
}

CacheHitRateTracker::Counts& CacheHitRateTracker::entry_for(
    const CompactRecord& rr, std::uint64_t h) {
  std::size_t i = static_cast<std::size_t>(h) & slot_mask_;
  while (true) {
    const std::uint32_t ref = slots_[i];
    if (ref == 0) break;
    const std::uint32_t idx = ref - 1;
    if (hashes_[idx] == h && entries_[idx].first.same_rr(rr)) {
      return entries_[idx].second;
    }
    i = (i + 1) & slot_mask_;
  }
  // First observation: keep slot load below 7/8.
  if (entries_.size() + 1 + (entries_.size() + 1) / 7 >= slots_.size()) {
    grow_slots(slots_.size() * 2);
    i = static_cast<std::size_t>(h) & slot_mask_;
    while (slots_[i] != 0) i = (i + 1) & slot_mask_;
  }
  const auto idx = static_cast<std::uint32_t>(entries_.size());
  entries_.emplace_back(rr, Counts{});
  entries_.back().first.ttl = 0;
  hashes_.push_back(h);
  slots_[i] = idx + 1;
  if (rr.owner >= chains_.size()) chains_.resize(rr.owner + 1);
  Chain& chain = chains_[rr.owner];
  if (chain.first == kNoEntry) {
    chain.first = idx;
  } else {
    next_[chain.last] = idx;
  }
  chain.last = idx;
  next_.push_back(kNoEntry);
  return entries_.back().second;
}

bool CacheHitRateTracker::record_below(const CompactRecord& rr) {
  Counts& counts = entry_for(rr, rr_hash(rr, *names_));
  if (counts.below + counts.above == 0) counts.ttl = rr.ttl;
  return counts.below++ == 0;
}

void CacheHitRateTracker::record_above(const CompactRecord& rr) {
  Counts& counts = entry_for(rr, rr_hash(rr, *names_));
  if (counts.below + counts.above == 0) counts.ttl = rr.ttl;
  ++counts.above;
}

bool CacheHitRateTracker::record_below(std::string_view name, RRType type,
                                       std::string_view rdata,
                                       std::uint32_t ttl) {
  return record_below(compact_record(*names_, name, type, ttl, rdata));
}

void CacheHitRateTracker::record_above(std::string_view name, RRType type,
                                       std::string_view rdata,
                                       std::uint32_t ttl) {
  record_above(compact_record(*names_, name, type, ttl, rdata));
}

void CacheHitRateTracker::merge_from(const CacheHitRateTracker& other,
                                     std::span<const NameId> remap) {
  // Each RR probes with other's stored hash (rr_hash is table-independent).
  for (std::size_t i = 0; i < other.entries_.size(); ++i) {
    auto [rr, src] = other.entries_[i];
    rr.owner = remap[rr.owner];
    if (rr.form == RdataForm::kText) rr.set_text(remap[rr.text()]);
    Counts& dst = entry_for(rr, other.hashes_[i]);
    if (dst.below + dst.above == 0) dst.ttl = src.ttl;
    dst.below += src.below;
    dst.above += src.above;
  }
}

const CacheHitRateTracker::Counts* CacheHitRateTracker::find(
    const RRKey& key) const {
  CompactRecord rr;
  if (!find_compact_record(*names_, key.name, key.type, key.rdata, rr)) {
    return nullptr;
  }
  const std::uint64_t h = rr_hash(rr, *names_);
  std::size_t i = static_cast<std::size_t>(h) & slot_mask_;
  while (true) {
    const std::uint32_t ref = slots_[i];
    if (ref == 0) return nullptr;
    const std::uint32_t idx = ref - 1;
    if (hashes_[idx] == h && entries_[idx].first.same_rr(rr)) {
      return &entries_[idx].second;
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
