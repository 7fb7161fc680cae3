// Generic LRU cache with fixed capacity.
//
// The paper's Section VI-A assumes "a typical Least Recently Used (LRU)
// cache implementation with a fixed memory allocation (a common
// configuration in DNS resolvers)"; this is that cache.  An eviction
// listener lets experiments observe *premature* evictions (entries pushed
// out while still fresh) — the paper's predicted failure mode under heavy
// disposable-domain load.
//
// Storage layout (the zero-allocation hot path, DESIGN.md §11): entries
// live in fixed-size blocks of up to 256 entries (stable addresses, one
// allocation per block while the cache grows; a deque's 512-byte blocks
// would hold only a handful of cache entries each) with intrusive index
// links forming the recency list, and the key index is a flat
// open-addressed slot array sized once from the capacity (power of two,
// linear probing, backward-shift deletion).  After the cache has filled
// once, every get/put/evict cycle recycles entry storage through a free
// list and never touches the allocator — unlike the previous std::list +
// std::unordered_map layout, which allocated a list node and a hash node
// per insert and rehashed under growth.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dnsnoise {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  using EvictionListener = std::function<void(const Key&, const Value&)>;

  explicit LruCache(std::size_t capacity)
      : capacity_(capacity),
        block_shift_(static_cast<unsigned>(std::countr_zero(
            std::bit_ceil(std::min<std::size_t>(capacity, kMaxBlock))))) {
    if (capacity == 0) throw std::invalid_argument("LruCache: capacity 0");
    // Slot array: one allocation for the cache's lifetime, sized so load
    // never exceeds 1/2 at full capacity — no rehash, ever.
    std::size_t slots = 16;
    while (slots < capacity * 2) slots <<= 1;
    slots_.assign(slots, 0);
    slot_mask_ = slots - 1;
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return size_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

  /// Called with the (key, value) of every entry evicted by capacity
  /// pressure (not by erase()).
  void set_eviction_listener(EvictionListener listener) {
    listener_ = std::move(listener);
  }

  /// Returns the value and marks the entry most-recently-used.  The pointer
  /// stays valid until the next mutating call (put/put_cold/erase/clear).
  Value* get(const Key& key) {
    const std::size_t slot = find_slot(key, hash_of(key));
    if (slot == kNoSlot) return nullptr;
    Entry& entry = at(slots_[slot] - 1);
    move_to_front(slots_[slot] - 1);
    return &entry.value;
  }

  /// Lookup without touching recency.
  const Value* peek(const Key& key) const {
    const std::size_t slot = find_slot(key, hash_of(key));
    return slot == kNoSlot ? nullptr : &at(slots_[slot] - 1).value;
  }

  /// Inserts or replaces; the entry becomes most-recently-used.  Evicts the
  /// least-recently-used entry when at capacity.  One hash computation per
  /// call; existing keys are found and updated in a single probe.  Returns
  /// the resident value (valid until the next mutating call).
  Value* put(Key key, Value value) {
    return put_impl(std::move(key), std::move(value), /*cold=*/false);
  }

  /// Inserts or replaces at the *cold* (least-recently-used) end: the
  /// entry becomes the first eviction candidate.  This is the mechanism
  /// behind the paper's Section VI-A mitigation sketch — "disposable
  /// domains could be treated with low priority".
  Value* put_cold(Key key, Value value) {
    return put_impl(std::move(key), std::move(value), /*cold=*/true);
  }

  /// Removes an entry without notifying the eviction listener.
  bool erase(const Key& key) {
    const std::size_t slot = find_slot(key, hash_of(key));
    if (slot == kNoSlot) return false;
    remove_entry(slot);
    return true;
  }

  void clear() noexcept {
    blocks_.clear();
    entry_count_ = 0;
    free_.clear();
    std::fill(slots_.begin(), slots_.end(), 0u);
    head_ = kNil;
    tail_ = kNil;
    size_ = 0;
  }

  /// Visits every (key, value), most-recently-used first.
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (std::uint32_t i = head_; i != kNil; i = at(i).next) {
      visit(at(i).key, at(i).value);
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMaxBlock = 256;  // entries per block

  struct Entry {
    Key key;
    Value value;
    std::uint64_t hash = 0;  // cached: probing and deletion never rehash
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  Entry& at(std::uint32_t index) noexcept {
    return blocks_[index >> block_shift_]
                  [index & ((std::uint32_t{1} << block_shift_) - 1)];
  }
  const Entry& at(std::uint32_t index) const noexcept {
    return const_cast<LruCache*>(this)->at(index);
  }

  /// Index of a fresh entry slot at the end of the storage.
  std::uint32_t grow() {
    const auto index = static_cast<std::uint32_t>(entry_count_);
    if ((entry_count_ >> block_shift_) == blocks_.size()) {
      blocks_.push_back(
          std::make_unique<Entry[]>(std::size_t{1} << block_shift_));
    }
    ++entry_count_;
    return index;
  }

  std::uint64_t hash_of(const Key& key) const {
    return static_cast<std::uint64_t>(hash_(key));
  }

  /// Slot index holding `key`, or kNoSlot.
  std::size_t find_slot(const Key& key, std::uint64_t hash) const {
    std::size_t i = static_cast<std::size_t>(hash) & slot_mask_;
    while (true) {
      const std::uint32_t ref = slots_[i];
      if (ref == 0) return kNoSlot;
      const Entry& entry = at(ref - 1);
      if (entry.hash == hash && entry.key == key) return i;
      i = (i + 1) & slot_mask_;
    }
  }

  Value* put_impl(Key key, Value value, bool cold) {
    const std::uint64_t hash = hash_of(key);
    std::size_t i = static_cast<std::size_t>(hash) & slot_mask_;
    while (true) {
      const std::uint32_t ref = slots_[i];
      if (ref == 0) break;
      Entry& entry = at(ref - 1);
      if (entry.hash == hash && entry.key == key) {
        entry.value = std::move(value);
        if (cold) {
          move_to_back(ref - 1);
        } else {
          move_to_front(ref - 1);
        }
        return &entry.value;
      }
      i = (i + 1) & slot_mask_;
    }
    if (size_ >= capacity_) {
      evict_one();
      // Backward-shift deletion may have reshaped our probe chain; find the
      // insertion slot again (still the same single hash computation).
      i = static_cast<std::size_t>(hash) & slot_mask_;
      while (slots_[i] != 0) i = (i + 1) & slot_mask_;
    }
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = grow();
    }
    Entry& entry = at(index);
    entry.key = std::move(key);
    entry.value = std::move(value);
    entry.hash = hash;
    slots_[i] = index + 1;
    link(index, cold);
    ++size_;
    return &entry.value;
  }

  /// Links entry `index` at the hot (front) or cold (back) end.
  void link(std::uint32_t index, bool cold) noexcept {
    Entry& entry = at(index);
    if (cold) {
      entry.next = kNil;
      entry.prev = tail_;
      if (tail_ != kNil) at(tail_).next = index;
      tail_ = index;
      if (head_ == kNil) head_ = index;
    } else {
      entry.prev = kNil;
      entry.next = head_;
      if (head_ != kNil) at(head_).prev = index;
      head_ = index;
      if (tail_ == kNil) tail_ = index;
    }
  }

  void unlink(std::uint32_t index) noexcept {
    Entry& entry = at(index);
    if (entry.prev != kNil) {
      at(entry.prev).next = entry.next;
    } else {
      head_ = entry.next;
    }
    if (entry.next != kNil) {
      at(entry.next).prev = entry.prev;
    } else {
      tail_ = entry.prev;
    }
  }

  void move_to_front(std::uint32_t index) noexcept {
    if (head_ == index) return;
    unlink(index);
    link(index, /*cold=*/false);
  }

  void move_to_back(std::uint32_t index) noexcept {
    if (tail_ == index) return;
    unlink(index);
    link(index, /*cold=*/true);
  }

  /// Empties slot `i`, compacting the probe cluster behind it
  /// (backward-shift deletion: no tombstones, so probe chains never decay).
  void slot_erase(std::size_t i) noexcept {
    std::size_t j = i;
    while (true) {
      slots_[i] = 0;
      while (true) {
        j = (j + 1) & slot_mask_;
        const std::uint32_t ref = slots_[j];
        if (ref == 0) return;
        const std::size_t ideal =
            static_cast<std::size_t>(at(ref - 1).hash) & slot_mask_;
        // Move j's entry into the hole iff the hole lies on its probe path
        // (cyclic interval ideal..j).
        const bool movable = i <= j ? (ideal <= i || ideal > j)
                                    : (ideal <= i && ideal > j);
        if (movable) {
          slots_[i] = ref;
          i = j;
          break;
        }
      }
    }
  }

  /// Removes the entry referenced by slot `slot` (no listener).
  void remove_entry(std::size_t slot) {
    const std::uint32_t index = slots_[slot] - 1;
    unlink(index);
    slot_erase(slot);
    release(index);
  }

  /// Returns entry storage to the free list (keeps capacity, drops values
  /// eagerly so evicted payloads don't linger).
  void release(std::uint32_t index) {
    at(index).key = Key();
    at(index).value = Value();
    free_.push_back(index);
    --size_;
  }

  void evict_one() {
    const std::uint32_t victim = tail_;
    Entry& entry = at(victim);
    if (listener_) listener_(entry.key, entry.value);
    unlink(victim);
    slot_erase(find_slot(entry.key, entry.hash));
    release(victim);
    ++evictions_;
  }

  std::size_t capacity_;
  // Blocks keep entry addresses stable while the storage grows toward
  // capacity, so get()/peek() pointers survive unrelated growth.
  unsigned block_shift_;  // log2 of entries per block
  std::vector<std::unique_ptr<Entry[]>> blocks_;
  std::size_t entry_count_ = 0;  // entries ever grown (live or free)
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty
  std::size_t slot_mask_ = 0;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t size_ = 0;
  std::uint64_t evictions_ = 0;
  EvictionListener listener_;
  [[no_unique_address]] Hash hash_;
};

}  // namespace dnsnoise
