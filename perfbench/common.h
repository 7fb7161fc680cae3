// Shared pieces of the benchmark binary: run options, the metric ledger
// and its one-line JSON result, the findings digest, and small timing and
// statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "miner/pipeline.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Self time and heap allocations of one layer.
struct Layer {
  std::uint64_t ns = 0;
  std::uint64_t allocs = 0;

  double seconds() const { return static_cast<double>(ns) * 1e-9; }
  Layer& operator+=(const Layer& other) {
    ns += other.ns;
    allocs += other.allocs;
    return *this;
  }
  Layer operator-(const Layer& other) const {
    return {ns - other.ns, allocs - other.allocs};
  }
};

/// Time and calling-thread allocations since construction (allocations
/// count only inside a CountingScope).
class Span {
 public:
  Span() : start_(Clock::now()), allocs_(thread_allocs()) {}
  Layer elapsed() const {
    return {ns_between(start_, Clock::now()), thread_allocs() - allocs_};
  }

 private:
  Clock::time_point start_;
  std::uint64_t allocs_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the correctness verdict, operation counts,
/// and the metrics of the requested kind (end-to-end or per-layer).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed check: the run is not correct, and `why` goes to
  /// stderr so the failure is explained next to the result line.
  void fail(const std::string& why);
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string to_json(const Report& report);

/// Order-sensitive digest of everything a mining day decides: findings
/// (zone, depth, confidence bits, group size), the evaluation counts that
/// precision and recall are computed from, and the DayAggregates.  Equal
/// digests mean equal findings.
std::uint64_t findings_digest(const dnsnoise::MiningDayResult& result);

double median(std::vector<double> values);

/// Peak resident set of this process (getrusage ru_maxrss), in MiB.
double peak_rss_mb();

}  // namespace perfbench
