// The one histogram type of the observability layer (DESIGN.md §10).
//
// LatencyRecorder is what every MetricsRegistry timer and histogram is,
// what the wire front-end records its per-query stage clocks into, and
// what the load generator records RTTs into: fixed-point log2-linear
// buckets (~3.1% relative width), exact count/sum/min/max, sharded
// writers, and a deterministic merge — the merged bucket counts are a
// pure function of the recorded value multiset, so threads(N) produces
// byte-identical snapshots to threads(1) over the same values
// (LatencyRecorder.* tests, TSan-covered).
//
// Bucket layout (kSubBits = 5):
//   * values in [0, 32) get one exact bucket each (index == value);
//   * every octave [2^e, 2^(e+1)) above splits into 32 sub-buckets of
//     width 2^(e-5), so the relative bucket width is bounded by 1/32
//     everywhere — the HdrHistogram trick, integer-only, no floating
//     point on the record path;
//   * values at or above 2^kMaxExponent (~73 minutes in ns) clamp into
//     the top bucket and are counted in `saturated`.
//
// Sharding contract: record() is relaxed fetch_adds on one shard plus a
// CAS on min/max only when an extreme moves.  A thread's shard is its
// process-wide thread index (assigned once per thread) modulo the shard
// count, so a recorder keeps no per-thread binding that could outlive
// it.  Threads may share a shard — counts and sums stay exact, min/max
// stay exact through the CAS — so sharing costs contention, never
// accuracy.  shard(i) binds a writer explicitly instead (the load
// generator's one shard per connection).  Concurrent readers (snapshot)
// see a consistent-enough view for monitoring, and an exact one once
// writers quiesce.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dnsnoise::obs {

/// Fixed-point log2-linear bucket layout shared by recorder and snapshot.
struct LatencyBuckets {
  static constexpr unsigned kSubBits = 5;  // 32 sub-buckets per octave
  static constexpr std::uint64_t kSubCount = std::uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxExponent = 42;  // ~73 min in ns
  /// 32 exact unit buckets + one 32-slot group per octave [2^5, 2^42).
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kSubCount) * (kMaxExponent - kSubBits + 1);

  /// Bucket index of value `v` (monotone in v).
  static constexpr std::size_t index(std::uint64_t v) noexcept {
    if (v < kSubCount) return static_cast<std::size_t>(v);
    unsigned e = std::bit_width(v) - 1;  // >= kSubBits
    if (e >= kMaxExponent) return kBucketCount - 1;
    const std::uint64_t slot = (v >> (e - kSubBits)) & (kSubCount - 1);
    return static_cast<std::size_t>(kSubCount * (e - kSubBits + 1) + slot);
  }

  /// Inclusive lower bound of bucket `i`.
  static constexpr std::uint64_t lower_bound(std::size_t i) noexcept {
    if (i < kSubCount) return i;
    const std::uint64_t octave = i / kSubCount - 1;
    const std::uint64_t slot = i % kSubCount;
    return (kSubCount + slot) << octave;
  }

  /// Exclusive upper bound of bucket `i`.
  static constexpr std::uint64_t upper_bound(std::size_t i) noexcept {
    if (i < kSubCount) return i + 1;
    return lower_bound(i) + (std::uint64_t{1} << (i / kSubCount - 1));
  }
};

/// Latency tail summary in seconds (loadgen results, bench gauges).
struct LatencyPercentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// Merged freeze of a recorder.  Counts are exact once writers quiesced.
struct LatencySnapshot {
  std::vector<std::uint64_t> counts;  // kBucketCount entries (empty if none)
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t min_ns = 0;  // 0 when empty
  std::uint64_t max_ns = 0;
  std::uint64_t saturated = 0;  // clamped into the top bucket

  bool empty() const noexcept { return count == 0; }
  double mean_ns() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum_ns) /
                                  static_cast<double>(count);
  }

  /// The estimated `q`-quantile in nanoseconds: walks the buckets to the
  /// target rank (rank = ceil(q * count), the smallest value whose CDF
  /// reaches q) and interpolates linearly within the covering bucket.
  /// Clamped to [min_ns, max_ns]; q <= 0 returns min_ns, q >= 1 returns
  /// max_ns, and an empty snapshot returns 0 everywhere.
  double quantile_ns(double q) const noexcept;

  /// p50/p90/p99/p999 in seconds via quantile_ns.
  LatencyPercentiles percentiles_seconds() const noexcept;

  /// Counts recorded since `prev` (bucket-wise subtraction), e.g. one
  /// pass of a long-lived recorder.  `prev` must be an older snapshot of
  /// the same recorder.  Extremes are cumulative: min/max stay the
  /// current ones.
  LatencySnapshot delta_since(const LatencySnapshot& prev) const;
};

/// Owner of the sharded bucket arrays.  Thread-safe throughout: shard
/// selection is indexed (no lock), recording is lock-free.
class LatencyRecorder {
 public:
  /// One bucket array (~10KB).  record() is relaxed fetch_adds plus a
  /// CAS loop on min/max that only spins while an extreme moves, so
  /// threads sharing a shard keep every field exact.
  class Shard {
   public:
    void record(std::uint64_t ns) noexcept {
      const std::size_t i = LatencyBuckets::index(ns);
      counts_[i].fetch_add(1, std::memory_order_relaxed);
      sum_ns_.fetch_add(ns, std::memory_order_relaxed);
      if (ns >= (std::uint64_t{1} << LatencyBuckets::kMaxExponent)) {
        saturated_.fetch_add(1, std::memory_order_relaxed);
      }
      std::uint64_t max = max_ns_.load(std::memory_order_relaxed);
      while (ns > max && !max_ns_.compare_exchange_weak(
                             max, ns, std::memory_order_relaxed)) {}
      std::uint64_t min = min_ns_.load(std::memory_order_relaxed);
      while (ns < min && !min_ns_.compare_exchange_weak(
                             min, ns, std::memory_order_relaxed)) {}
    }

   private:
    friend class LatencyRecorder;
    std::array<std::atomic<std::uint64_t>, LatencyBuckets::kBucketCount>
        counts_{};
    std::atomic<std::uint64_t> sum_ns_{0};
    std::atomic<std::uint64_t> min_ns_{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max_ns_{0};
    std::atomic<std::uint64_t> saturated_{0};
  };

  /// `shards` concurrent writers (at least 1).
  explicit LatencyRecorder(std::size_t shards = 1);

  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  Shard& shard(std::size_t i) noexcept { return *shards_[i % shards_.size()]; }

  /// The calling thread's shard: its process-wide thread index modulo
  /// shard_count().  No per-recorder state, so a recorder built where a
  /// destroyed one lived never inherits its shards.
  Shard& thread_shard() noexcept;

  /// Records `v` into the calling thread's shard.
  void record(std::uint64_t v) noexcept { thread_shard().record(v); }

  /// Exact sum of every recorded value (nanoseconds for timers); a few
  /// relaxed loads, no bucket walk.
  std::uint64_t total_ns() const noexcept;

  /// Zeroes every shard.  Callers must quiesce writers first (the
  /// warmup→measure reset happens at a worker barrier).
  void reset() noexcept;

  /// Deterministic merge of all shards: bucket-wise sums, so the result
  /// depends only on the recorded value multiset, not the shard
  /// assignment.  Exact once writers quiesced.
  LatencySnapshot snapshot() const;

 private:
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// One entry of the slow-query log: the total span plus the per-stage
/// breakdown that explains it — a trace exemplar for the tail.
struct SlowQueryEntry {
  std::uint64_t total_ns = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t cluster_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t ts = 0;  // simulated timestamp of the query
  std::string qname;
};

/// Bounded worst-N log of slow queries.  maybe_add() is cheap when the
/// query is not slow: one relaxed threshold load rejects anything below
/// the current N-th slowest without taking the lock.  Admissions (rare
/// by construction) lock, insert, evict the fastest, and republish the
/// threshold.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(std::size_t capacity = 32);

  std::size_t capacity() const noexcept { return capacity_; }

  /// Whether a query of `total_ns` would currently be admitted — the
  /// lock-free fast path, exposed so callers can skip building the entry
  /// (qname copy) for the overwhelming non-slow majority.
  bool would_admit(std::uint64_t total_ns) const noexcept {
    return total_ns > threshold_ns_.load(std::memory_order_relaxed);
  }

  void maybe_add(const SlowQueryEntry& entry);

  /// The retained entries, slowest first.
  std::vector<SlowQueryEntry> entries() const;

  /// Drops every recorded entry and re-opens admission (threshold back
  /// to 0); POST /slowlog/clear ends up here.
  void clear();

  /// dnsnoise-slowlog-v1 JSON (entries slowest first, stage breakdown in
  /// nanoseconds); served by obs/telemetry_server on GET /slowlog.
  /// `max_entries` caps the emitted entries (0 = all retained).
  std::string to_json(std::size_t max_entries = 0) const;

 private:
  std::size_t capacity_;
  std::atomic<std::uint64_t> threshold_ns_{0};
  mutable std::mutex mutex_;
  std::vector<SlowQueryEntry> entries_;  // unordered; sorted on read
};

}  // namespace dnsnoise::obs
