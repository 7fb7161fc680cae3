// loadgen: workload distributions, the open/closed-loop driver, and the
// harness's reason to exist — under overload, the open loop's
// scheduled-send anchoring surfaces the queueing delay the closed loop
// structurally cannot see (coordinated omission).
//
// The driver tests run against a simulated single-server FIFO queue with
// a fixed service time instead of a real socket, which makes the
// divergence deterministic: a closed loop against a 1ms server measures
// ~1ms RTTs at any offered rate, while an open loop offered 4x the
// service rate must build backlog linear in the query index.
#include "loadgen/driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "loadgen/workload.h"
#include "obs/metrics.h"
#include "resolver/wire_frontend.h"
#include "util/rng.h"

namespace dnsnoise::loadgen {
namespace {

using Clock = std::chrono::steady_clock;

TEST(Workload, FixedRateGapsAreExact) {
  WorkloadConfig config;
  config.arrival = ArrivalProcess::kFixedRate;
  config.offered_qps = 1e6;  // 1000ns gaps
  const Workload workload(config);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(workload.next_gap_ns(rng), 1000u);
}

TEST(Workload, PoissonGapsAverageTheOfferedRate) {
  WorkloadConfig config;
  config.arrival = ArrivalProcess::kPoisson;
  config.offered_qps = 10'000;  // mean gap 100us
  const Workload workload(config);
  Rng rng(7);
  double sum = 0;
  constexpr int kSamples = 20'000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(workload.next_gap_ns(rng));
  }
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 100'000.0, 5'000.0);
}

TEST(Workload, ZipfKeysAreSkewedAndUniformKeysAreNot) {
  WorkloadConfig config;
  config.name_count = 100;
  config.keys = KeyDistribution::kZipf;
  config.zipf_s = 1.2;
  const Workload zipf(config);
  config.keys = KeyDistribution::kUniform;
  const Workload uniform(config);

  Rng rng_a(3);
  Rng rng_b(3);
  std::vector<int> zipf_hits(100), uniform_hits(100);
  for (int i = 0; i < 20'000; ++i) {
    ++zipf_hits[zipf.next_key(rng_a)];
    ++uniform_hits[uniform.next_key(rng_b)];
  }
  // Rank 0 dominates under Zipf; under uniform it stays near 1/100.
  EXPECT_GT(zipf_hits[0], 3'000);
  EXPECT_LT(uniform_hits[0], 500);
}

TEST(Workload, NamesAndClientsAreStable) {
  WorkloadConfig config;
  config.name_count = 10;
  config.name_prefix = "q";
  config.name_suffix = ".bench.test";
  config.client_count = 16;
  const Workload workload(config);
  EXPECT_EQ(workload.name_of(3), "q3.bench.test");
  EXPECT_EQ(workload.name_of(13), "q3.bench.test");  // wraps
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_LT(workload.client_of(seq), 16u);
    EXPECT_EQ(workload.client_of(seq), workload.client_of(seq));
  }
}

/// Single-server FIFO queue with a fixed service time: responses echo the
/// two id bytes once their (queued) service completes.  Single-threaded
/// by the driver's contract (one transport per worker).
class QueueTransport final : public QueryTransport {
 public:
  explicit QueueTransport(std::chrono::nanoseconds service)
      : service_(service) {}

  bool send(std::span<const std::uint8_t> wire) override {
    if (wire.size() < 2) return false;
    const auto now = Clock::now();
    const auto start = std::max(now, free_at_);
    free_at_ = start + service_;
    pending_.push_back({free_at_, {wire[0], wire[1]}});
    return true;
  }

  std::optional<std::vector<std::uint8_t>> receive(int timeout_ms) override {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (!pending_.empty() && pending_.front().done_at <= Clock::now()) {
        std::vector<std::uint8_t> resp(pending_.front().id.begin(),
                                       pending_.front().id.end());
        pending_.pop_front();
        return resp;
      }
      if (timeout_ms <= 0) return std::nullopt;  // poll
      const auto now = Clock::now();
      if (now >= deadline) return std::nullopt;
      const auto wake = pending_.empty()
                            ? deadline
                            : std::min(deadline, pending_.front().done_at);
      std::this_thread::sleep_until(wake);
      if (pending_.empty()) return std::nullopt;
    }
  }

 private:
  struct Pending {
    Clock::time_point done_at;
    std::array<std::uint8_t, 2> id;
  };
  std::chrono::nanoseconds service_;
  Clock::time_point free_at_{};
  std::deque<Pending> pending_;
};

LoadgenConfig queue_config() {
  LoadgenConfig config;
  config.workload.name_count = 16;
  config.connections = 1;
  config.queries = 240;
  config.timeout_ms = 200;
  config.drain_timeout_ms = 5000;
  config.seed = 9;
  return config;
}

TransportFactory queue_factory(std::chrono::nanoseconds service) {
  return [service](std::size_t) {
    return std::make_unique<QueueTransport>(service);
  };
}

TEST(LoadgenLoop, ClosedLoopMeasuresServiceTime) {
  LoadgenConfig config = queue_config();
  config.mode = LoopMode::kClosed;
  const LoadgenResult result =
      run_load(config, queue_factory(std::chrono::milliseconds(1)));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.completed, config.queries);
  EXPECT_EQ(result.lost, 0u);
  // One query outstanding against a 1ms server: RTT ~ service time.
  EXPECT_GE(result.percentiles.p50, 0.0005);
  EXPECT_LT(result.percentiles.p99, 0.020);
  EXPECT_EQ(result.offered_qps, 0.0);  // a closed loop has no offered rate
}

TEST(LoadgenLoop, OpenLoopOverloadExposesCoordinatedOmission) {
  // The tentpole demonstration: 4x overload.  The closed loop above
  // reports ~1ms p99 forever; the open loop charges each query the
  // backlog it actually waited behind.
  LoadgenConfig closed = queue_config();
  closed.mode = LoopMode::kClosed;
  const LoadgenResult closed_result =
      run_load(closed, queue_factory(std::chrono::milliseconds(1)));
  ASSERT_TRUE(closed_result.ok) << closed_result.error;

  LoadgenConfig open = queue_config();
  open.mode = LoopMode::kOpen;
  open.workload.arrival = ArrivalProcess::kFixedRate;
  open.workload.offered_qps = 4000;  // server capacity is 1000/s
  const LoadgenResult open_result =
      run_load(open, queue_factory(std::chrono::milliseconds(1)));
  ASSERT_TRUE(open_result.ok) << open_result.error;
  EXPECT_EQ(open_result.completed, open.queries);  // late, but all answered

  // 240 queries scheduled over 60ms into a 1ms/query server: the last
  // ones wait ~175ms.  Huge margins keep this robust on loaded CI.
  EXPECT_GT(open_result.percentiles.p99, 0.050);
  EXPECT_GT(open_result.percentiles.p99, 3.0 * closed_result.percentiles.p99);
  // Achieved rate converges to the service rate, not the offered rate.
  EXPECT_LT(open_result.achieved_qps, 2000.0);
  EXPECT_NEAR(open_result.offered_qps, 4000.0, 1.0);
}

TEST(LoadgenLoop, OpenLoopAtSustainableRateStaysFlat) {
  LoadgenConfig config = queue_config();
  config.mode = LoopMode::kOpen;
  config.queries = 120;
  config.workload.arrival = ArrivalProcess::kFixedRate;
  config.workload.offered_qps = 200;  // well under the 1000/s capacity
  const LoadgenResult result =
      run_load(config, queue_factory(std::chrono::milliseconds(1)));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.completed, config.queries);
  // No backlog at 20% utilization: the open-loop tail is the service time.
  EXPECT_LT(result.percentiles.p99, 0.020);
}

TEST(LoadgenLoop, WarmupQueriesAreNotRecorded) {
  LoadgenConfig config = queue_config();
  config.mode = LoopMode::kClosed;
  config.queries = 50;
  config.warmup_queries = 30;
  const LoadgenResult result =
      run_load(config, queue_factory(std::chrono::microseconds(100)));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.sent, 50u);
  EXPECT_EQ(result.completed, 50u);
  EXPECT_EQ(result.latency.count, 50u);  // warmup left no samples
}

TEST(LoadgenLoop, TransportFactoryFailureIsReported) {
  LoadgenConfig config = queue_config();
  const LoadgenResult result =
      run_load(config, [](std::size_t) -> std::unique_ptr<QueryTransport> {
        return nullptr;
      });
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("transport factory failed"), std::string::npos);
}

TEST(LoadgenLoop, DrivesTheRealWireFrontend) {
  // End to end over a real UDP socket: multi-connection closed loop plus
  // an open-loop pass, replay metadata carrying the client population.
  obs::MetricsRegistry registry;
  SyntheticAuthority authority;
  authority.register_zone(*DomainName::parse("bench.test"),
                          SyntheticAuthority::make_flat_a_zone(60));
  ClusterConfig cluster_config;
  cluster_config.server_count = 1;
  RdnsCluster cluster(cluster_config, authority);
  WireFrontendConfig frontend_config;
  frontend_config.allow_replay_meta = true;
  frontend_config.metrics = &registry;
  WireFrontend frontend(std::array{&cluster}, frontend_config);
  ASSERT_TRUE(frontend.start()) << frontend.error();

  LoadgenConfig config;
  config.mode = LoopMode::kClosed;
  config.connections = 2;
  config.queries = 400;
  config.warmup_queries = 50;
  config.workload.name_count = 64;
  config.attach_replay_meta = true;
  const LoadgenResult closed_result =
      run_load_udp(config, "127.0.0.1", frontend.udp_port());
  ASSERT_TRUE(closed_result.ok) << closed_result.error;
  EXPECT_GT(closed_result.completed, 350u);  // loopback may drop a few
  EXPECT_GT(closed_result.percentiles.p50, 0.0);

  config.mode = LoopMode::kOpen;
  config.workload.offered_qps = 2000;
  const LoadgenResult open_result =
      run_load_udp(config, "127.0.0.1", frontend.udp_port());
  ASSERT_TRUE(open_result.ok) << open_result.error;
  EXPECT_GT(open_result.completed, 350u);

  // The served queries flowed the instrumented path: stage latency saw
  // every answered query.
  const StageLatencyBreakdown stages = frontend.stage_latency();
  EXPECT_GE(stages.total.count,
            closed_result.completed + open_result.completed);
  frontend.stop();
}

}  // namespace
}  // namespace dnsnoise::loadgen
