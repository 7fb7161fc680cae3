#include "resolver/lru_cache.h"

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace dnsnoise {
namespace {

TEST(LruCacheTest, PutGetPeek) {
  LruCache<std::string, int> cache(4);
  cache.put("a", 1);
  cache.put("b", 2);
  EXPECT_EQ(*cache.get("a"), 1);
  EXPECT_EQ(*cache.peek("b"), 2);
  EXPECT_EQ(cache.get("missing"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, UpdateReplacesValue) {
  LruCache<std::string, int> cache(2);
  cache.put("a", 1);
  cache.put("a", 9);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.get("a"), 9);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<std::string, int> cache(2);
  cache.put("a", 1);
  cache.put("b", 2);
  cache.put("c", 3);  // evicts "a"
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_NE(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, GetRefreshesRecency) {
  LruCache<std::string, int> cache(2);
  cache.put("a", 1);
  cache.put("b", 2);
  EXPECT_NE(cache.get("a"), nullptr);  // "a" is now MRU
  cache.put("c", 3);                   // evicts "b"
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr);
}

TEST(LruCacheTest, PeekDoesNotRefreshRecency) {
  LruCache<std::string, int> cache(2);
  cache.put("a", 1);
  cache.put("b", 2);
  EXPECT_NE(cache.peek("a"), nullptr);  // no touch
  cache.put("c", 3);                    // evicts "a" (still LRU)
  EXPECT_EQ(cache.get("a"), nullptr);
}

TEST(LruCacheTest, EvictionListenerSeesVictims) {
  LruCache<int, int> cache(2);
  std::vector<int> victims;
  cache.set_eviction_listener(
      [&victims](const int& key, const int&) { victims.push_back(key); });
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);
  cache.put(4, 40);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 1);
  EXPECT_EQ(victims[1], 2);
}

TEST(LruCacheTest, EraseDoesNotNotifyListener) {
  LruCache<int, int> cache(2);
  int notified = 0;
  cache.set_eviction_listener([&notified](const int&, const int&) {
    ++notified;
  });
  cache.put(1, 10);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(notified, 0);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, ClearEmpties) {
  LruCache<int, int> cache(4);
  cache.put(1, 1);
  cache.put(2, 2);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get(1), nullptr);
}

TEST(LruCacheTest, ForEachVisitsMruFirst) {
  LruCache<int, int> cache(3);
  cache.put(1, 1);
  cache.put(2, 2);
  cache.put(3, 3);
  (void)cache.get(1);  // 1 becomes MRU
  std::vector<int> order;
  cache.for_each(
      [&order](const int& key, const int&) { order.push_back(key); });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
}

TEST(LruCacheTest, ZeroCapacityThrows) {
  EXPECT_THROW((LruCache<int, int>(0)), std::invalid_argument);
}

class LruPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LruPropertyTest, SizeNeverExceedsCapacityUnderRandomOps) {
  const std::size_t capacity = GetParam();
  LruCache<std::uint64_t, std::uint64_t> cache(capacity);
  Rng rng(capacity);
  std::uint64_t inserted = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.below(capacity * 3);
    switch (rng.below(3)) {
      case 0:
        cache.put(key, key);
        ++inserted;
        break;
      case 1:
        (void)cache.get(key);
        break;
      default:
        (void)cache.erase(key);
        break;
    }
    ASSERT_LE(cache.size(), capacity);
  }
  EXPECT_GT(inserted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruPropertyTest,
                         ::testing::Values(1, 2, 3, 16, 64, 257));

// Full behavioural parity against a textbook std::list + std::map model:
// the index-linked rehash-free layout must be observationally identical,
// including recency order, put_cold placement, and eviction victims.
class LruReferenceModel {
 public:
  explicit LruReferenceModel(std::size_t capacity) : capacity_(capacity) {}

  const int* get(int key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  // Returns the evicted key, or nullopt.
  std::optional<int> put(int key, int value, bool cold) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = value;
      // cold re-put demotes to the eviction end, hot re-put promotes.
      order_.splice(cold ? order_.end() : order_.begin(), order_,
                    it->second);
      return std::nullopt;
    }
    std::optional<int> evicted;
    if (order_.size() >= capacity_) {
      evicted = order_.back().first;
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    if (cold) {
      order_.emplace_back(key, value);
      index_[key] = std::prev(order_.end());
    } else {
      order_.emplace_front(key, value);
      index_[key] = order_.begin();
    }
    return evicted;
  }

  bool erase(int key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  std::size_t size() const { return order_.size(); }

 private:
  std::size_t capacity_;
  std::list<std::pair<int, int>> order_;  // front = most recent
  std::map<int, std::list<std::pair<int, int>>::iterator> index_;
};

TEST(LruCacheTest, ParityWithReferenceModel) {
  for (const std::size_t capacity : {1u, 2u, 7u, 32u}) {
    LruCache<int, int> cache(capacity);
    LruReferenceModel model(capacity);
    std::optional<int> last_evicted;
    cache.set_eviction_listener([&last_evicted](const int& key, const int&) {
      last_evicted = key;
    });
    Rng rng(0x1ab + capacity);
    const int key_space = static_cast<int>(capacity * 3 + 1);
    for (int step = 0; step < 20'000; ++step) {
      const int key = static_cast<int>(rng.below(key_space));
      switch (rng.below(4)) {
        case 0: {
          const int* got = cache.get(key);
          const int* want = model.get(key);
          ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
          if (want != nullptr) ASSERT_EQ(*got, *want) << "step " << step;
          break;
        }
        case 1:
        case 2: {
          const bool cold = rng.chance(0.25);
          last_evicted.reset();
          int* resident = cold ? cache.put_cold(key, step)
                               : cache.put(key, step);
          const std::optional<int> evicted = model.put(key, step, cold);
          ASSERT_NE(resident, nullptr);
          ASSERT_EQ(*resident, step);
          ASSERT_EQ(last_evicted, evicted) << "step " << step;
          break;
        }
        default:
          ASSERT_EQ(cache.erase(key), model.erase(key)) << "step " << step;
          break;
      }
      ASSERT_EQ(cache.size(), model.size()) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace dnsnoise
