#include "dns/name_table.h"

#include <atomic>
#include <cstring>

#include "util/simd/kernels.h"

namespace dnsnoise {

void entropy_many(std::span<const NameId> ids, const NameTable& table,
                  std::span<double> out) noexcept {
  kernels::CharHist hist;
  kernels::hist_init(hist);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::string_view text = table.name(ids[i]);
    kernels::hist_build(hist, text);
    out[i] = kernels::entropy_from_hist(hist, text.size());
    kernels::hist_reset(hist);
  }
}

std::string_view StringArena::store(std::string_view s) {
  if (s.empty()) return {};
  if (chunk_used_ + s.size() > kChunkBytes) {
    // Oversized payloads (never DNS names, which cap at 253 bytes) get a
    // dedicated chunk so they still never span two chunks.
    if (s.size() > kChunkBytes) {
      chunks_.push_back(std::make_unique<char[]>(s.size()));
      char* dst = chunks_.back().get();
      std::memcpy(dst, s.data(), s.size());
      bytes_used_ += s.size();
      // Keep the current (partially used) chunk active by re-ordering: the
      // dedicated chunk was appended last, so swap it below the active one.
      if (chunks_.size() >= 2) {
        std::swap(chunks_[chunks_.size() - 1], chunks_[chunks_.size() - 2]);
      }
      return {dst, s.size()};
    }
    chunks_.push_back(std::make_unique<char[]>(kChunkBytes));
    chunk_used_ = 0;
  }
  char* dst = chunks_.back().get() + chunk_used_;
  std::memcpy(dst, s.data(), s.size());
  chunk_used_ += s.size();
  bytes_used_ += s.size();
  return {dst, s.size()};
}

void NameTable::grow_slots(std::size_t min_slots) {
  std::size_t n = 16;
  while (n < min_slots) n <<= 1;
  std::vector<std::uint32_t> fresh(n, 0);
  const std::size_t mask = n - 1;
  for (std::uint32_t id = 0; id < recs_.size(); ++id) {
    std::size_t i = static_cast<std::size_t>(recs_[id].hash) & mask;
    while (fresh[i] != 0) i = (i + 1) & mask;
    fresh[i] = id + 1;
  }
  slots_.swap(fresh);
}

void NameTable::reserve(std::size_t count) {
  recs_.reserve(count);
  // 8/7 headroom keeps the table below the 7/8 growth trigger at `count`.
  const std::size_t wanted = count + count / 7 + 1;
  if (wanted > slots_.size()) grow_slots(wanted);
}

NameId NameTable::find(std::string_view s) const noexcept {
  if (slots_.empty()) return kInvalidNameId;
  const std::uint64_t h = fnv1a64(s);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (true) {
    const std::uint32_t slot = slots_[i];
    if (slot == 0) return kInvalidNameId;
    const Rec& rec = recs_[slot - 1];
    if (rec.hash == h && rec.text == s) return slot - 1;
    i = (i + 1) & mask;
  }
}

std::uint64_t NameTable::next_serial() noexcept {
  static std::atomic<std::uint64_t> serial{0};
  return serial.fetch_add(1, std::memory_order_relaxed) + 1;
}

NameId NameTable::intern(std::string_view s, std::uint64_t h) {
  if (slots_.empty()) grow_slots(16);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (true) {
    const std::uint32_t slot = slots_[i];
    if (slot == 0) break;
    const Rec& rec = recs_[slot - 1];
    if (rec.hash == h && rec.text == s) return slot - 1;
    i = (i + 1) & mask;
  }
  const auto id = static_cast<std::uint32_t>(recs_.size());
  recs_.push_back(Rec{arena_.store(s), h});
  slots_[i] = id + 1;
  // Grow past 7/8 load; reinserting re-probes every stored hash.
  if ((recs_.size() + recs_.size() / 7) >= slots_.size()) {
    grow_slots(slots_.size() * 2);
  }
  return id;
}

std::vector<NameId> NameTable::intern_all(const NameTable& other) {
  std::vector<NameId> remap(other.size());
  for (NameId id = 0; id < remap.size(); ++id) {
    remap[id] = intern(other.recs_[id].text, other.recs_[id].hash);
  }
  return remap;
}

}  // namespace dnsnoise
