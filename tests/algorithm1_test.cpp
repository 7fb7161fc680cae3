#include "miner/algorithm1.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "engine/parallel_miner.h"
#include "engine/thread_pool.h"
#include "miner/labeler.h"
#include "ml/lad_tree.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workload/label_gen.h"

// Allocation probe: this binary replaces global operator new so a test can
// count the allocations made while a flag is set.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line: an inlined free() of a pointer from a replaced operator new
// draws a false -Wmismatched-new-delete.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace dnsnoise {
namespace {

/// Counts the allocations made in its lifetime (on any thread).
class AllocationCount {
 public:
  AllocationCount() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationCount() { stop(); }
  std::size_t stop() {
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocs.load(std::memory_order_relaxed);
  }
};

/// Fixture: plants one disposable zone (hash children, one query + one miss
/// each) and one popular zone (human hosts, well cached), then trains a LAD
/// tree on equivalent synthetic groups.
class Algorithm1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    // Planted disposable zone: 40 one-time hash names.
    for (int i = 0; i < 40; ++i) {
      add_rr(rng.hex_string(24) + ".avqs.vendor.com", 1, 1);
    }
    // Planted popular zone: 8 human hostnames, well cached.
    const char* hosts[] = {"www", "mail", "img",  "api",
                           "cdn", "m",    "shop", "news"};
    for (const char* host : hosts) {
      add_rr(std::string(host) + ".popular.com", 200, 3);
    }
    train_model(rng);
  }

  void add_rr(const std::string& name, std::uint64_t queries,
              std::uint64_t misses) {
    tree_.insert(DomainName(name));
    for (std::uint64_t q = 0; q < queries; ++q) {
      chr_.record_below(name, RRType::A, "10.0.0.1");
    }
    for (std::uint64_t m = 0; m < misses; ++m) {
      chr_.record_above(name, RRType::A, "10.0.0.1");
    }
  }

  void train_model(Rng& rng) {
    // Train on independently generated groups with the same two shapes.
    Dataset data(kFeatureCount);
    for (int sample = 0; sample < 40; ++sample) {
      NameTable names;
      DomainNameTree tree(names);
      CacheHitRateTracker chr(names);
      std::vector<NameId> group;
      const bool disposable = sample % 2 == 0;
      const std::size_t count =
          disposable ? 15 + rng.below(40) : 4 + rng.below(12);
      for (std::size_t i = 0; i < count; ++i) {
        const std::string label =
            disposable ? rng.hex_string(20 + rng.below(10))
                       : human_hostname(i);
        const std::string name = label + ".zone.test";
        group.push_back(tree.insert(DomainName(name)));
        const std::uint64_t queries = disposable ? 1 : 50 + rng.below(200);
        const std::uint64_t misses = disposable ? 1 : 1 + rng.below(4);
        for (std::uint64_t q = 0; q < queries; ++q) {
          chr.record_below(name, RRType::A, "1");
        }
        for (std::uint64_t m = 0; m < misses; ++m) {
          chr.record_above(name, RRType::A, "1");
        }
      }
      const GroupFeatures features =
          compute_group_features(tree, group, 2, chr);
      data.add(features.as_array(), disposable ? 1 : 0);
    }
    model_.train(data);
  }

  NameTable names_;
  DomainNameTree tree_{names_};
  CacheHitRateTracker chr_{names_};
  LadTree model_;
};

TEST_F(Algorithm1Test, FindsPlantedZoneAndDecolors) {
  const DisposableZoneMiner miner(model_);
  const std::size_t black_before = tree_.black_count();
  const auto findings = miner.mine(tree_, chr_);
  ASSERT_EQ(findings.size(), 1u);
  // Algorithm 1 starts at the 2LD and recurses; depending on how the
  // adjacent-label features score at each level, the group is attributed
  // at the 2LD or at the generating sub-zone.  Both are correct outputs.
  EXPECT_TRUE(findings[0].zone == "vendor.com" ||
              findings[0].zone == "avqs.vendor.com")
      << findings[0].zone;
  EXPECT_EQ(findings[0].depth, 4u);
  EXPECT_EQ(findings[0].group_size, 40u);
  EXPECT_GE(findings[0].confidence, 0.9);
  // The classified group was decolored.
  EXPECT_EQ(tree_.black_count(), black_before - 40u);
  // The popular zone survived untouched.
  EXPECT_TRUE(tree_.black(tree_.find(DomainName("www.popular.com"))));
}

TEST_F(Algorithm1Test, SecondPassFindsNothingNew) {
  const DisposableZoneMiner miner(model_);
  (void)miner.mine(tree_, chr_);
  const auto second = miner.mine(tree_, chr_);
  EXPECT_TRUE(second.empty());
}

TEST_F(Algorithm1Test, MinGroupSizeGate) {
  MinerConfig config;
  config.min_group_size = 100;  // larger than the planted group
  const DisposableZoneMiner miner(model_, config);
  EXPECT_TRUE(miner.mine(tree_, chr_).empty());
}

TEST_F(Algorithm1Test, ThresholdGate) {
  MinerConfig config;
  config.threshold = 1.1;  // unreachable
  const DisposableZoneMiner miner(model_, config);
  EXPECT_TRUE(miner.mine(tree_, chr_).empty());
}

TEST_F(Algorithm1Test, RecursesIntoChildZones) {
  // Add a second disposable group deeper under an already-busy 2LD whose
  // *top-level* group is non-disposable: recursion must still find it.
  Rng rng(9);
  const char* hosts[] = {"www", "mail", "api", "img"};
  for (const char* host : hosts) {
    add_rr(std::string(host) + ".mixed.com", 300, 2);
  }
  for (int i = 0; i < 30; ++i) {
    add_rr(rng.hex_string(22) + ".t.metrics.mixed.com", 1, 1);
  }
  const DisposableZoneMiner miner(model_);
  const auto findings = miner.mine(tree_, chr_);
  bool found_deep = false;
  for (const auto& finding : findings) {
    if (finding.depth == 5 &&
        (finding.zone == "mixed.com" || finding.zone == "metrics.mixed.com" ||
         finding.zone == "t.metrics.mixed.com")) {
      found_deep = true;
    }
  }
  EXPECT_TRUE(found_deep);
  EXPECT_TRUE(tree_.black(tree_.find(DomainName("www.mixed.com"))));
}

TEST_F(Algorithm1Test, FindingsAreRankedByConfidence) {
  Rng rng(11);
  for (int i = 0; i < 25; ++i) {
    add_rr(rng.hex_string(30) + ".zen.other.org", 1, 1);
  }
  const DisposableZoneMiner miner(model_);
  const auto findings = miner.mine(tree_, chr_);
  ASSERT_GE(findings.size(), 2u);
  for (std::size_t i = 1; i < findings.size(); ++i) {
    EXPECT_GE(findings[i - 1].confidence, findings[i].confidence);
  }
}

/// Plants a zone too heavy to walk on one thread: big.com holds
/// kSplitBlackNodes one-off names under cdn.big.com, a disposable child
/// zone t.big.com with its own deep group, and human hosts.
void plant_heavy_zone(DomainNameTree& tree, CacheHitRateTracker& chr) {
  Rng rng(21);
  const auto add = [&](const std::string& name, std::uint64_t queries,
                       std::uint64_t misses) {
    tree.insert(DomainName(name));
    for (std::uint64_t q = 0; q < queries; ++q) {
      chr.record_below(name, RRType::A, "10.0.0.1");
    }
    for (std::uint64_t m = 0; m < misses; ++m) {
      chr.record_above(name, RRType::A, "10.0.0.1");
    }
  };
  for (std::size_t i = 0; i < DisposableZoneMiner::kSplitBlackNodes; ++i) {
    add(rng.hex_string(20) + ".cdn.big.com", 1, 1);
  }
  for (int i = 0; i < 60; ++i) {
    add(rng.hex_string(24) + ".x.t.big.com", 1, 1);
  }
  for (const char* host : {"www", "mail", "api", "img", "shop", "m"}) {
    add(std::string(host) + ".big.com", 150, 2);
  }
  for (int i = 0; i < 40; ++i) {
    add(rng.hex_string(18) + ".avqs.small.net", 1, 1);
  }
}

TEST_F(Algorithm1Test, SplitZoneOnAPoolMinesLikeTheSerialWalk) {
  // Mined on a pool, a zone this heavy has its groups' features computed
  // in parallel and its child zones run as tasks; the findings, the
  // decolored names and the walk's counters must equal the serial walk's.
  struct Day {
    NameTable names;
    DomainNameTree tree{names};
    CacheHitRateTracker chr{names};
    obs::MetricsRegistry metrics;
  };
  const auto mine_day = [this](Day& day, ThreadPool* pool) {
    plant_heavy_zone(day.tree, day.chr);
    MinerConfig config;
    config.metrics = &day.metrics;
    const DisposableZoneMiner miner(model_, config);
    return mine_zones_parallel(miner, day.tree, day.chr, *config.psl, pool);
  };
  const auto serial_day = std::make_unique<Day>();
  const std::vector<DisposableZoneFinding> want =
      mine_day(*serial_day, nullptr);
  ASSERT_FALSE(want.empty());
  for (const std::size_t workers : {1u, 2u, 3u}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    const auto day = std::make_unique<Day>();
    const std::vector<DisposableZoneFinding> got = mine_day(*day, &pool);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].zone, want[i].zone) << i;
      EXPECT_EQ(got[i].depth, want[i].depth) << i;
      EXPECT_EQ(got[i].group_size, want[i].group_size) << i;
      EXPECT_EQ(got[i].confidence, want[i].confidence) << i;
      EXPECT_EQ(got[i].features.as_array(), want[i].features.as_array()) << i;
    }
    ASSERT_EQ(day->names.size(), serial_day->names.size());
    for (NameId id = 0; id < day->names.size(); ++id) {
      if (!day->tree.contains(id)) continue;
      ASSERT_EQ(day->tree.black(id), serial_day->tree.black(id)) << id;
    }
    for (const char* counter :
         {"miner.zones_visited", "miner.groups_classified",
          "miner.groups_decolored", "miner.names_decolored"}) {
      EXPECT_EQ(day->metrics.counter(counter).value(),
                serial_day->metrics.counter(counter).value()) << counter;
    }
  }
}

TEST(TailAllocationTest, LabelingAndMiningAllocatePerFindingNotPerZone) {
  // The golden engine day (tests/golden_pipeline_test.cpp) visits over
  // ten thousand zones; its labeling and its serial mine allocate for
  // what they return and a constant besides, never per zone or group.
  ScenarioScale scale;
  scale.queries_per_day = 30'000;
  scale.client_count = 1'500;
  ClusterConfig cluster;
  cluster.server_count = 4;
  cluster.cache.capacity = 1 << 14;
  MiningSession session(scale);
  session.cluster(cluster).threads(1);
  DayCapture capture;
  ASSERT_TRUE(session.simulate(ScenarioDate::kDec30, capture).ok());
  const Scenario scenario(ScenarioDate::kDec30, scale);

  AllocationCount label_count;
  const std::vector<LabeledZone> labeled =
      label_zones(capture.tree(), capture.chr(), scenario);
  const std::size_t label_allocs = label_count.stop();

  LadTree model;
  model.train(to_dataset(labeled));
  obs::MetricsRegistry metrics;
  MinerConfig config;
  config.metrics = &metrics;
  const DisposableZoneMiner miner(model, config);
  AllocationCount mine_count;
  const std::vector<DisposableZoneFinding> findings = mine_zones_parallel(
      miner, capture.tree(), capture.chr(), *config.psl, 1);
  const std::size_t mine_allocs = mine_count.stop();

  ASSERT_GT(metrics.counter("miner.zones_visited").value(), 10'000u);
  ASSERT_GT(findings.size(), 0u);
  // The constants cover the growth of this thread's reusable buffers (depth
  // buckets, extraction arrays) and of the returned vectors; measured at
  // 101 for labeling and 320 for mining in a fresh process.
  EXPECT_LE(label_allocs, labeled.size() + 200);
  EXPECT_LE(mine_allocs, findings.size() + 400);
}

}  // namespace
}  // namespace dnsnoise
