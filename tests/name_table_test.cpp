#include "dns/name_table.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace dnsnoise {
namespace {

std::vector<std::string> sample_names(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<std::string> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    names.push_back(rng.hex_string(8 + rng.below(12)) + ".zone" +
                    std::to_string(rng.below(40)) + ".example.com");
  }
  return names;
}

TEST(NameTableTest, InternIsIdempotentAndDense) {
  NameTable table;
  const NameId a = table.intern("a.example.com");
  const NameId b = table.intern("b.example.com");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(table.intern("a.example.com"), a);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.name(a), "a.example.com");
  EXPECT_EQ(table.name(b), "b.example.com");
}

TEST(NameTableTest, FindNeverInterns) {
  NameTable table;
  EXPECT_EQ(table.find("ghost.example.com"), kInvalidNameId);
  EXPECT_EQ(table.size(), 0u);
  table.intern("real.example.com");
  EXPECT_EQ(table.find("real.example.com"), 0u);
  EXPECT_EQ(table.find("ghost.example.com"), kInvalidNameId);
  EXPECT_EQ(table.size(), 1u);
}

TEST(NameTableTest, HashMatchesFnv1a) {
  NameTable table;
  const NameId id = table.intern("www.example.com");
  EXPECT_EQ(table.name_hash(id), fnv1a64("www.example.com"));
  const NameRef ref = table.ref("www.example.com");
  EXPECT_EQ(ref.id, id);
  EXPECT_EQ(ref.text, "www.example.com");
  EXPECT_EQ(ref.hash, table.name_hash(id));
  EXPECT_TRUE(ref.valid());
}

TEST(NameTableTest, ViewsStayStableAcrossGrowth) {
  // Interned views must survive arbitrary later interning: slot-array
  // growth and new arena chunks never move stored bytes.
  NameTable table;
  const std::vector<std::string> names = sample_names(7, 5'000);
  std::vector<std::pair<NameId, std::string_view>> early;
  for (std::size_t i = 0; i < 32; ++i) {
    const NameId id = table.intern(names[i]);
    early.emplace_back(id, table.name(id));
  }
  for (const std::string& name : names) table.intern(name);
  for (std::size_t i = 0; i < early.size(); ++i) {
    EXPECT_EQ(early[i].second, names[i]);
    EXPECT_EQ(table.name(early[i].first).data(), early[i].second.data())
        << "arena view moved for " << names[i];
  }
}

TEST(NameTableTest, SameStreamSameIdsAcrossShards) {
  // Two shards that intern the same name stream assign identical ids —
  // the determinism the sharded engine relies on for reproducible days.
  const std::vector<std::string> names = sample_names(11, 2'000);
  NameTable shard_a;
  NameTable shard_b;
  for (const std::string& name : names) {
    ASSERT_EQ(shard_a.intern(name), shard_b.intern(name)) << name;
  }
  ASSERT_EQ(shard_a.size(), shard_b.size());
  for (NameId id = 0; id < shard_a.size(); ++id) {
    EXPECT_EQ(shard_a.name(id), shard_b.name(id));
    EXPECT_EQ(shard_a.name_hash(id), shard_b.name_hash(id));
  }
}

TEST(NameTableTest, DifferentOrderRemapsThroughText) {
  // Shards seeing different orders assign different ids; merging must go
  // through the text, which round-trips exactly.
  const std::vector<std::string> names = sample_names(13, 500);
  NameTable forward;
  NameTable backward;
  for (const std::string& name : names) forward.intern(name);
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    backward.intern(*it);
  }
  ASSERT_EQ(forward.size(), backward.size());
  for (NameId id = 0; id < forward.size(); ++id) {
    const NameId remapped = backward.find(forward.name(id));
    ASSERT_NE(remapped, kInvalidNameId);
    EXPECT_EQ(backward.name(remapped), forward.name(id));
  }
}

TEST(NameTableTest, InternAllMapsEveryIdThroughItsText) {
  NameTable shard;
  shard.intern("b.example.com");
  shard.intern("shared.example.com");
  NameTable merged;
  const NameId shared = merged.intern("shared.example.com");
  const std::vector<NameId> remap = merged.intern_all(shard);
  ASSERT_EQ(remap.size(), shard.size());
  EXPECT_EQ(remap[1], shared);  // already there: same id
  EXPECT_EQ(merged.name(remap[0]), "b.example.com");
  EXPECT_EQ(merged.name_hash(remap[0]), fnv1a64("b.example.com"));
  EXPECT_EQ(merged.size(), 2u);
}

TEST(NameTableTest, ReserveKeepsIdsAndViews) {
  NameTable table;
  const NameId id = table.intern("keep.example.com");
  const std::string_view view = table.name(id);
  table.reserve(100'000);
  EXPECT_EQ(table.find("keep.example.com"), id);
  EXPECT_EQ(table.name(id).data(), view.data());
}

TEST(NameTableTest, MoveTransfersEverything) {
  NameTable table;
  const NameId id = table.intern("moved.example.com");
  NameTable other = std::move(table);
  EXPECT_EQ(other.find("moved.example.com"), id);
  EXPECT_EQ(other.name(id), "moved.example.com");
}

}  // namespace
}  // namespace dnsnoise
