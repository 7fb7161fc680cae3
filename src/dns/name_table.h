// NameTable: arena-backed string interning for the hot query path.
//
// Every subsystem that used to key hash maps on owned std::string copies
// (resolver cache, a day's capture) can instead intern a normalized name
// once and pass a dense 32-bit NameId around.  Interning buys three
// things on the steady-state path:
//   1. zero allocations — a name seen before resolves to its id without
//      touching the heap (open addressing over a flat slot array),
//   2. precomputed hashes — the FNV-1a hash computed at intern time is
//      stored per id, so downstream maps never rehash the bytes,
//   3. stable views — interned bytes live in append-only arena chunks, so
//      a string_view handed out by the table is valid for the table's
//      lifetime (cache entries and tree nodes may hold it without copying).
//
// Ids are dense and assigned in first-intern order, which makes them
// deterministic for a fixed input stream; cross-shard determinism is
// achieved by *remapping through the text* when merging (intern_all),
// never by comparing raw ids of different tables.  See DESIGN.md §11 for
// the full determinism argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace dnsnoise {

/// Dense handle of an interned string (table-scoped, first-intern order).
using NameId = std::uint32_t;

/// Sentinel for "not interned".
inline constexpr NameId kInvalidNameId = 0xffffffffu;

/// Append-only byte arena: stable storage for interned strings.  Strings
/// never move once stored, so views into the arena stay valid until the
/// arena is destroyed.
class StringArena {
 public:
  /// Copies `s` into the arena and returns a stable view of the copy.
  std::string_view store(std::string_view s);

  /// Total bytes of interned payload (excluding chunk slack).
  std::size_t bytes_used() const noexcept { return bytes_used_; }

 private:
  // 64 KiB chunks: far above the 253-byte name ceiling, so a string never
  // spans chunks, and small enough that a mostly-idle table stays cheap.
  static constexpr std::size_t kChunkBytes = 1 << 16;

  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t chunk_used_ = kChunkBytes;  // forces allocation on first store
  std::size_t bytes_used_ = 0;
};

/// A resolved view of one interned name: id + stable text + its hash.
/// Cheap to copy; valid while the owning NameTable lives.
struct NameRef {
  NameId id = kInvalidNameId;
  std::string_view text;
  std::uint64_t hash = 0;

  bool valid() const noexcept { return id != kInvalidNameId; }
};

class NameTable {
 public:
  NameTable() = default;

  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;
  NameTable(NameTable&&) = default;
  NameTable& operator=(NameTable&&) = default;

  /// Interns `name` (which must already be normalized: lowercase, no
  /// trailing dot) and returns its dense id.  Idempotent; a repeated intern
  /// of a known name is allocation-free.
  NameId intern(std::string_view name) { return intern(name, fnv1a64(name)); }

  /// intern() for a name whose hash is already known: `hash` must be
  /// fnv1a64(name), e.g. another table's name_hash() when merging tables,
  /// so the name bytes are not hashed again.
  NameId intern(std::string_view name, std::uint64_t hash);

  /// Interns every string of `other` in id order, reusing its stored
  /// hashes, and returns the map from other's ids to this table's.
  std::vector<NameId> intern_all(const NameTable& other);

  /// Id of `name` if already interned, else kInvalidNameId.  Never
  /// allocates.
  NameId find(std::string_view name) const noexcept;

  /// Stable text of an interned name.
  std::string_view name(NameId id) const noexcept { return recs_[id].text; }

  /// Precomputed FNV-1a hash of an interned name.
  std::uint64_t name_hash(NameId id) const noexcept { return recs_[id].hash; }

  /// Full (id, text, hash) view; interns when absent.
  NameRef ref(std::string_view name) {
    const NameId id = intern(name);
    return NameRef{id, recs_[id].text, recs_[id].hash};
  }

  std::size_t size() const noexcept { return recs_.size(); }

  /// Pre-sizes the table for `count` names (no rehash below that).
  void reserve(std::size_t count);

  std::size_t bytes_used() const noexcept { return arena_.bytes_used(); }

  /// Distinct for every table constructed in this process (never 0), so a
  /// table built at a freed table's address is not taken for it.
  std::uint64_t serial() const noexcept { return serial_; }

 private:
  struct Rec {
    std::string_view text;  // stable view into the arena
    std::uint64_t hash = 0;
  };

  void grow_slots(std::size_t min_slots);
  static std::uint64_t next_serial() noexcept;

  std::uint64_t serial_ = next_serial();
  StringArena arena_;
  std::vector<Rec> recs_;
  // Open addressing, linear probing, power-of-two size.  A slot holds
  // id + 1; 0 marks empty.  Grown at 7/8 load.
  std::vector<std::uint32_t> slots_;
};

/// Batched Shannon entropy over interned names: out[i] = entropy of
/// table.name(ids[i]).  Ids in first-intern order walk the append-only
/// arena contiguously, so the batch streams the interned bytes front to
/// back instead of pointer-chasing one name at a time; the histogram
/// workspace is reused across the whole batch (kernels::entropy_many).
/// Requires out.size() >= ids.size().
void entropy_many(std::span<const NameId> ids, const NameTable& table,
                  std::span<double> out) noexcept;

}  // namespace dnsnoise
