#include "obs/latency.h"

#include <algorithm>
#include <cmath>

#include "obs/json_writer.h"

namespace dnsnoise::obs {

double LatencySnapshot::quantile_ns(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min_ns);
  if (q >= 1.0) return static_cast<double>(max_ns);
  // Smallest value whose CDF reaches q: rank r in [1, count].
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  const std::uint64_t target = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t c = counts[i];
    if (c == 0) continue;
    if (seen + c >= target) {
      const auto lo = static_cast<double>(LatencyBuckets::lower_bound(i));
      const auto hi = static_cast<double>(LatencyBuckets::upper_bound(i));
      // Linear interpolation of the rank within the covering bucket.
      const double frac =
          (static_cast<double>(target - seen) - 0.5) / static_cast<double>(c);
      const double value = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      // The true extremes are tracked exactly; never report beyond them.
      return std::clamp(value, static_cast<double>(min_ns),
                        static_cast<double>(max_ns));
    }
    seen += c;
  }
  return static_cast<double>(max_ns);
}

LatencyPercentiles LatencySnapshot::percentiles_seconds() const noexcept {
  LatencyPercentiles p;
  p.p50 = quantile_ns(0.50) * 1e-9;
  p.p90 = quantile_ns(0.90) * 1e-9;
  p.p99 = quantile_ns(0.99) * 1e-9;
  p.p999 = quantile_ns(0.999) * 1e-9;
  return p;
}

LatencySnapshot LatencySnapshot::delta_since(const LatencySnapshot& prev)
    const {
  LatencySnapshot delta;
  delta.counts.assign(LatencyBuckets::kBucketCount, 0);
  for (std::size_t i = 0; i < delta.counts.size(); ++i) {
    const std::uint64_t now = i < counts.size() ? counts[i] : 0;
    const std::uint64_t old = i < prev.counts.size() ? prev.counts[i] : 0;
    delta.counts[i] = now > old ? now - old : 0;
    delta.count += delta.counts[i];
  }
  delta.sum_ns = sum_ns > prev.sum_ns ? sum_ns - prev.sum_ns : 0;
  delta.saturated =
      saturated > prev.saturated ? saturated - prev.saturated : 0;
  // Extremes are cumulative, not differentiable; keep the current ones.
  delta.min_ns = min_ns;
  delta.max_ns = max_ns;
  return delta;
}

LatencyRecorder::LatencyRecorder(std::size_t shards) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

LatencyRecorder::Shard& LatencyRecorder::thread_shard() noexcept {
  // Assigned once per thread, shared by every recorder: consecutive
  // threads land on distinct shards of any recorder.
  static std::atomic<std::size_t> next_thread{0};
  thread_local const std::size_t thread_index =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  return *shards_[thread_index % shards_.size()];
}

std::uint64_t LatencyRecorder::total_ns() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->sum_ns_.load(std::memory_order_relaxed);
  }
  return total;
}

void LatencyRecorder::reset() noexcept {
  for (const auto& shard : shards_) {
    for (auto& c : shard->counts_) c.store(0, std::memory_order_relaxed);
    shard->sum_ns_.store(0, std::memory_order_relaxed);
    shard->min_ns_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    shard->max_ns_.store(0, std::memory_order_relaxed);
    shard->saturated_.store(0, std::memory_order_relaxed);
  }
}

LatencySnapshot LatencyRecorder::snapshot() const {
  LatencySnapshot out;
  out.counts.assign(LatencyBuckets::kBucketCount, 0);
  std::uint64_t min_ns = ~std::uint64_t{0};
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < out.counts.size(); ++i) {
      out.counts[i] += shard->counts_[i].load(std::memory_order_relaxed);
    }
    out.sum_ns += shard->sum_ns_.load(std::memory_order_relaxed);
    out.saturated += shard->saturated_.load(std::memory_order_relaxed);
    min_ns = std::min(min_ns, shard->min_ns_.load(std::memory_order_relaxed));
    out.max_ns =
        std::max(out.max_ns, shard->max_ns_.load(std::memory_order_relaxed));
  }
  for (const std::uint64_t c : out.counts) out.count += c;
  // A racing writer may have bumped its bucket before its min landed;
  // keep min <= max so quantile_ns's clamp range stays valid.
  out.min_ns = out.count == 0 ? 0 : std::min(min_ns, out.max_ns);
  return out;
}

SlowQueryLog::SlowQueryLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  entries_.reserve(capacity_);
}

void SlowQueryLog::maybe_add(const SlowQueryEntry& entry) {
  // Fast path: below the published N-th-slowest threshold, not slow.
  if (!would_admit(entry.total_ns)) return;
  const std::lock_guard lock(mutex_);
  if (entries_.size() < capacity_) {
    entries_.push_back(entry);
    if (entries_.size() < capacity_) return;  // threshold stays 0 until full
  } else {
    auto slowest_evictable = std::min_element(
        entries_.begin(), entries_.end(),
        [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
          return a.total_ns < b.total_ns;
        });
    if (entry.total_ns <= slowest_evictable->total_ns) return;  // raced
    *slowest_evictable = entry;
  }
  const auto new_floor = std::min_element(
      entries_.begin(), entries_.end(),
      [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
        return a.total_ns < b.total_ns;
      });
  threshold_ns_.store(new_floor->total_ns, std::memory_order_relaxed);
}

std::vector<SlowQueryEntry> SlowQueryLog::entries() const {
  std::vector<SlowQueryEntry> out;
  {
    const std::lock_guard lock(mutex_);
    out = entries_;
  }
  std::sort(out.begin(), out.end(),
            [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
              return a.total_ns > b.total_ns;
            });
  return out;
}

void SlowQueryLog::clear() {
  const std::lock_guard lock(mutex_);
  entries_.clear();
  threshold_ns_.store(0, std::memory_order_relaxed);
}

std::string SlowQueryLog::to_json(std::size_t max_entries) const {
  std::vector<SlowQueryEntry> sorted = entries();
  if (max_entries != 0 && sorted.size() > max_entries) {
    sorted.resize(max_entries);  // already slowest first: keep the worst N
  }
  std::string out = "{\n  \"schema\": \"dnsnoise-slowlog-v1\",\n";
  json_key(out, 2, "capacity");
  out += std::to_string(capacity_);
  out += ",\n";
  json_key(out, 2, "entries");
  if (sorted.empty()) {
    out += "[]";
  } else {
    out += "[\n";
    bool first = true;
    for (const SlowQueryEntry& entry : sorted) {
      if (!first) out += ",\n";
      first = false;
      out += "    {\"qname\": ";
      json_string(out, entry.qname);
      out += ", \"ts\": " + std::to_string(entry.ts);
      out += ", \"total_ns\": " + std::to_string(entry.total_ns);
      out += ", \"decode_ns\": " + std::to_string(entry.decode_ns);
      out += ", \"cluster_ns\": " + std::to_string(entry.cluster_ns);
      out += ", \"encode_ns\": " + std::to_string(entry.encode_ns);
      out += "}";
    }
    out += "\n  ]";
  }
  out += "\n}\n";
  return out;
}

}  // namespace dnsnoise::obs
