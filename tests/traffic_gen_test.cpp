#include "workload/traffic_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

namespace dnsnoise {
namespace {

/// Minimal test tenant: fixed name, tracks how often it was sampled.
class CountingModel final : public ZoneModel {
 public:
  explicit CountingModel(std::string name) : name_(std::move(name)) {}
  const std::string& name() const noexcept override { return name_; }
  bool disposable() const noexcept override { return false; }
  QuerySpec sample_query(Rng&) override {
    ++samples_;
    return {"host." + name_, RRType::A};
  }
  void install(SyntheticAuthority&) const override {}
  std::uint64_t samples() const noexcept { return samples_; }

 private:
  std::string name_;
  std::uint64_t samples_ = 0;
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

}  // namespace
}  // namespace dnsnoise
