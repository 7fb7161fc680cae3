#include "obs/metrics.h"

#include <stdexcept>

namespace dnsnoise::obs {

void Gauge::add(double v) noexcept {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + v,
                                       std::memory_order_relaxed)) {}
}

void Gauge::set_max(double v) noexcept {
  double current = value_.load(std::memory_order_relaxed);
  while (current < v && !value_.compare_exchange_weak(
                            current, v, std::memory_order_relaxed)) {}
}

const MetricSample* MetricsSnapshot::find(
    std::string_view name) const noexcept {
  for (const MetricSample& sample : samples) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name,
                                               MetricKind kind) {
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("MetricsRegistry: metric '" + std::string(name) +
                             "' already registered with a different kind");
    }
    return it->second;
  }
  Entry& fresh = entries_[std::string(name)];
  fresh.kind = kind;
  return fresh;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name, MetricKind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name, MetricKind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

LatencyRecorder& MetricsRegistry::distribution(std::string_view name,
                                              MetricKind kind) {
  // Shards bound the contention of concurrent writers (serving threads,
  // engine workers); snapshots merge them, so the count changes nothing
  // a reader sees.
  constexpr std::size_t kShards = 4;
  std::lock_guard lock(mutex_);
  Entry& e = entry(name, kind);
  if (!e.distribution) {
    e.distribution = std::make_unique<LatencyRecorder>(kShards);
  }
  return *e.distribution;
}

LatencyRecorder& MetricsRegistry::timer(std::string_view name) {
  return distribution(name, MetricKind::kTimer);
}

LatencyRecorder& MetricsRegistry::histogram(std::string_view name) {
  return distribution(name, MetricKind::kHistogram);
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot out;
  out.samples.reserve(entries_.size());
  // entries_ is an ordered map, so the snapshot (and its JSON form) is
  // name-sorted without an extra sort.
  for (const auto& [name, e] : entries_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        sample.count = e.counter->value();
        break;
      case MetricKind::kGauge:
        sample.value = e.gauge->value();
        break;
      case MetricKind::kTimer:
      case MetricKind::kHistogram:
        sample.distribution = e.distribution->snapshot();
        sample.count = sample.distribution.count;
        break;
    }
    out.samples.push_back(std::move(sample));
  }
  return out;
}

}  // namespace dnsnoise::obs
