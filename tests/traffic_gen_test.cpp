#include "workload/traffic_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "workload/scenario.h"

namespace dnsnoise {
namespace {

/// Minimal test tenant: fixed name, tracks how often it was sampled.
class CountingModel final : public ZoneModel {
 public:
  explicit CountingModel(std::string name) : name_(std::move(name)) {}
  const std::string& name() const noexcept override { return name_; }
  bool disposable() const noexcept override { return false; }
  void sample_query_into(QuerySpec& out, Rng&, RecentNames&) const override {
    ++samples_;
    out = {"host." + name_, RRType::A};
  }
  void install(SyntheticAuthority&) const override {}
  std::uint64_t samples() const noexcept { return samples_; }

 private:
  std::string name_;
  mutable std::uint64_t samples_ = 0;  // walks here run on one thread
};

TrafficConfig small_config() {
  TrafficConfig config;
  config.queries_per_day = 24'000;
  config.client_count = 100;
  config.seed = 7;
  return config;
}

TEST(TrafficGenTest, TimestampsAreOrderedAndWithinDay) {
  TrafficGenerator gen(small_config());
  gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
  SimTime last = -1;
  std::uint64_t count = 0;
  gen.run_day_shard(3, {},
                    [&](SimTime ts, std::uint64_t, const QuerySpec&) {
                      EXPECT_GE(ts, last);
                      EXPECT_GE(ts, 3 * kSecondsPerDay);
                      EXPECT_LT(ts, 4 * kSecondsPerDay);
                      last = ts;
                      ++count;
                    });
  EXPECT_NEAR(static_cast<double>(count), 24'000.0, 24.0);
}

TEST(TrafficGenTest, WeightsControlMix) {
  TrafficGenerator gen(small_config());
  auto heavy = std::make_shared<CountingModel>("heavy.com");
  auto light = std::make_shared<CountingModel>("light.com");
  gen.add_model(heavy, 9.0);
  gen.add_model(light, 1.0);
  gen.run_day_shard(0, {}, [](SimTime, std::uint64_t, const QuerySpec&) {});
  const double total =
      static_cast<double>(heavy->samples() + light->samples());
  EXPECT_NEAR(static_cast<double>(heavy->samples()) / total, 0.9, 0.02);
}

TEST(TrafficGenTest, DiurnalShapeShows) {
  TrafficConfig config = small_config();
  config.queries_per_day = 100'000;
  TrafficGenerator gen(config);
  gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
  std::map<int, std::uint64_t> per_hour;
  gen.run_day_shard(
      0, {}, [&per_hour](SimTime ts, std::uint64_t, const QuerySpec&) {
        ++per_hour[hour_of_day(ts)];
      });
  // Default profile: 8pm is the peak, 4am the trough.
  EXPECT_GT(per_hour[20], per_hour[4] * 3);
}

TEST(TrafficGenTest, FlatProfileIsEven) {
  TrafficConfig config = small_config();
  config.diurnal = DiurnalProfile::flat();
  TrafficGenerator gen(config);
  gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
  std::map<int, std::uint64_t> per_hour;
  gen.run_day_shard(
      0, {}, [&per_hour](SimTime ts, std::uint64_t, const QuerySpec&) {
        ++per_hour[hour_of_day(ts)];
      });
  for (const auto& [hour, count] : per_hour) {
    EXPECT_EQ(count, 1000u) << "hour " << hour;
  }
}

TEST(TrafficGenTest, DeterministicForSameSeed) {
  std::vector<std::string> run1;
  std::vector<std::string> run2;
  for (auto* sink : {&run1, &run2}) {
    TrafficGenerator gen(small_config());
    gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
    gen.add_model(std::make_shared<CountingModel>("b.com"), 1.0);
    gen.run_day_shard(
        0, {}, [sink](SimTime, std::uint64_t, const QuerySpec& q) {
          if (sink->size() < 500) sink->push_back(q.qname);
        });
  }
  EXPECT_EQ(run1, run2);
}

TEST(TrafficGenTest, ShardsSplitTheDayWithNothingLostOrRepeated) {
  // A slot's timestamp, client and tenant are fixed by (seed, day, slot),
  // so the shards of a day partition its slots by client hash.  The
  // tenants here emit one fixed name each, so the name pins the tenant.
  using Slot = std::tuple<SimTime, std::uint64_t, std::string>;
  const auto shard_slots = [](std::size_t count, std::size_t index) {
    TrafficGenerator gen(small_config());
    gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
    gen.add_model(std::make_shared<CountingModel>("b.com"), 2.0);
    std::vector<Slot> slots;
    gen.run_day_shard(2, {count, index},
                      [&slots](SimTime ts, std::uint64_t client,
                               const QuerySpec& q) {
                        slots.emplace_back(ts, client, q.qname);
                      });
    return slots;
  };
  std::vector<Slot> day = shard_slots(1, 0);
  ASSERT_FALSE(day.empty());
  std::sort(day.begin(), day.end());
  for (const std::size_t count : {1u, 2u, 4u}) {
    std::vector<Slot> joined;
    for (std::size_t index = 0; index < count; ++index) {
      const std::vector<Slot> shard = shard_slots(count, index);
      EXPECT_FALSE(shard.empty()) << count << " shards, shard " << index;
      for (const Slot& slot : shard) {
        EXPECT_EQ(shard_of(std::get<1>(slot), count), index);
        joined.push_back(slot);
      }
    }
    std::sort(joined.begin(), joined.end());
    EXPECT_EQ(joined, day) << count << " shards";
  }
}

TEST(TrafficGenTest, PlanDoesNotDependOnChunkSchedule) {
  // Each slot's client is drawn from its own stream, so a plan whose
  // chunks run in reverse order walks exactly like a serial one.
  TrafficConfig config = small_config();
  config.queries_per_day = 100'000;  // several plan chunks
  TrafficGenerator gen(config);
  gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
  gen.add_model(std::make_shared<CountingModel>("b.com"), 2.0);
  const ParallelFor reversed =
      [](std::size_t n, const std::function<void(std::size_t)>& body) {
        for (std::size_t i = n; i > 0; --i) body(i - 1);
      };
  const DayPlan serial = gen.plan_day(4, 3);
  const DayPlan scheduled = gen.plan_day(4, 3, reversed);
  using Slot = std::tuple<SimTime, std::uint64_t, std::string>;
  const auto walk = [&gen](const DayPlan& plan, std::size_t index) {
    std::vector<Slot> slots;
    gen.run_planned_shard(plan, index,
                          [&slots](SimTime ts, std::uint64_t client,
                                   const QuerySpec& q) {
                            slots.emplace_back(ts, client, q.qname);
                          });
    return slots;
  };
  for (std::size_t index = 0; index < 3; ++index) {
    const std::vector<Slot> expected = walk(serial, index);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(walk(scheduled, index), expected) << "shard " << index;
  }
}

TEST(TrafficGenTest, ClientIdsAreStableAndNonZero) {
  const TrafficGenerator gen(small_config());
  EXPECT_NE(gen.client_id_for_rank(0), 0u);
  EXPECT_EQ(gen.client_id_for_rank(5), gen.client_id_for_rank(5));
  EXPECT_NE(gen.client_id_for_rank(5), gen.client_id_for_rank(6));
}

TEST(TrafficGenTest, ClientActivityIsSkewed) {
  TrafficGenerator gen(small_config());
  gen.add_model(std::make_shared<CountingModel>("a.com"), 1.0);
  std::map<std::uint64_t, std::uint64_t> per_client;
  gen.run_day_shard(0, {},
                    [&per_client](SimTime, std::uint64_t client,
                                  const QuerySpec&) { ++per_client[client]; });
  std::uint64_t max_count = 0;
  for (const auto& [client, count] : per_client) {
    max_count = std::max(max_count, count);
  }
  const double mean = 24'000.0 / static_cast<double>(per_client.size());
  EXPECT_GT(static_cast<double>(max_count), mean * 3);
}

TEST(TrafficGenTest, ErrorsOnBadUsage) {
  TrafficGenerator gen(small_config());
  EXPECT_THROW(
      gen.run_day_shard(0, {}, [](SimTime, std::uint64_t, const QuerySpec&) {}),
      std::logic_error);
  EXPECT_THROW(gen.add_model(nullptr, 1.0), std::invalid_argument);
  EXPECT_THROW(gen.add_model(std::make_shared<CountingModel>("x"), 0.0),
               std::invalid_argument);
}

/// Digest of one shard-day's (ts, client, qtype, qname) sequence, drawn
/// from a freshly built Scenario as an engine shard draws it.
struct ShardStream {
  std::uint64_t queries = 0;
  std::uint64_t digest = 0;
};

ShardStream shard_stream(const ScenarioScale& scale, std::int64_t day,
                         std::size_t count, std::size_t index) {
  Scenario scenario(ScenarioDate::kDec30, scale);
  ShardStream out;
  scenario.traffic().run_day_shard(
      day, {count, index},
      [&out](SimTime ts, std::uint64_t client, const QuerySpec& q) {
        ++out.queries;
        out.digest = mix64(out.digest ^ static_cast<std::uint64_t>(ts));
        out.digest = mix64(out.digest ^ client);
        out.digest = mix64(out.digest ^ static_cast<std::uint64_t>(q.qtype));
        out.digest = mix64(out.digest ^ fnv1a64(q.qname));
      });
  return out;
}

TEST(TrafficGenTest, ShardStreamsArePinned) {
  // The golden engine day (golden_pipeline_test) and its warmup day: half
  // the volume on the distinct warmup stream, the day before.
  ScenarioScale measured;
  measured.queries_per_day = 30'000;
  measured.client_count = 1'500;
  ScenarioScale warmup = measured;
  warmup.queries_per_day = 15'000;
  warmup.traffic_stream ^= 0xbeefcafeULL;
  const std::int64_t day = scenario_day_index(ScenarioDate::kDec30);

  struct Pinned {
    bool warmup;
    std::size_t count;
    std::size_t index;
    std::uint64_t queries;
    std::uint64_t digest;
  };
  static constexpr Pinned kPinned[] = {
      {false, 1, 0, 29997, 0x0ffe9e03df164bf4ULL},
      {false, 4, 0, 6636, 0x1ad962465ae6ab0aULL},
      {false, 4, 1, 9402, 0xf82fb2068c0c49b4ULL},
      {false, 4, 2, 6390, 0x8b469d2130740fcbULL},
      {false, 4, 3, 7569, 0x6e58532fef901d5aULL},
      {false, 8, 0, 3374, 0x44120c8ce76b6792ULL},
      {false, 8, 1, 4862, 0xaa59e6b340183ad1ULL},
      {false, 8, 2, 3600, 0x9f6a83576d6bdf48ULL},
      {false, 8, 3, 4339, 0xa5fcaa634cd75481ULL},
      {false, 8, 4, 3262, 0x26bceb2bba31e53cULL},
      {false, 8, 5, 4540, 0xff07ee20e12a72edULL},
      {false, 8, 6, 2790, 0xce3a857a96b4b61bULL},
      {false, 8, 7, 3230, 0xcd32a2b0f5090668ULL},
      {true, 1, 0, 14999, 0x7776ba287be8901fULL},
      {true, 4, 0, 4886, 0xabad7d9f44ec3a37ULL},
      {true, 4, 1, 3710, 0x6b6c3e7c7f639aafULL},
      {true, 4, 2, 3884, 0xb055aa9b22c5965bULL},
      {true, 4, 3, 2519, 0x6f576df789964ec1ULL},
      {true, 8, 0, 2490, 0x3264985fffb60dc3ULL},
      {true, 8, 1, 2109, 0x118501bb45a0b7a4ULL},
      {true, 8, 2, 2243, 0x632fc6716f64b4a9ULL},
      {true, 8, 3, 1067, 0xa71fc605c8eac365ULL},
      {true, 8, 4, 2396, 0xc332b118147660caULL},
      {true, 8, 5, 1601, 0x26120983a3263a4bULL},
      {true, 8, 6, 1641, 0x1d91483603360f05ULL},
      {true, 8, 7, 1452, 0x505994647b993a34ULL},
  };
  for (const Pinned& pin : kPinned) {
    const ShardStream got =
        pin.warmup ? shard_stream(warmup, day - 1, pin.count, pin.index)
                   : shard_stream(measured, day, pin.count, pin.index);
    EXPECT_EQ(got.queries, pin.queries)
        << (pin.warmup ? "warmup" : "measured") << " day, shard " << pin.index
        << " of " << pin.count;
    EXPECT_EQ(got.digest, pin.digest)
        << (pin.warmup ? "warmup" : "measured") << " day, shard " << pin.index
        << " of " << pin.count;
  }
}

}  // namespace
}  // namespace dnsnoise
