#include "obs/json_snapshot.h"

#include <string_view>
#include <utility>
#include <vector>

namespace dnsnoise::obs {

namespace {

template <typename Sample, typename Emit>
void object_section(std::string& out, std::string_view section,
                    const std::vector<const Sample*>& samples, Emit emit,
                    bool& first_section) {
  if (!first_section) out += ",\n";
  first_section = false;
  json_key(out, 2, section);
  if (samples.empty()) {
    out += "{}";
    return;
  }
  out += "{\n";
  bool first = true;
  for (const Sample* sample : samples) {
    if (!first) out += ",\n";
    first = false;
    emit(*sample);
  }
  out += "\n  }";
}

/// One timer/histogram entry: exact count/total/min/max and the
/// recorder's percentiles, every value divided by `scale` and every key
/// but "count" suffixed with `unit`.
void distribution_fields(std::string& out, const MetricSample& s,
                         double scale, std::string_view unit) {
  const LatencySnapshot& d = s.distribution;
  const std::pair<std::string_view, double> fields[] = {
      {"total", static_cast<double>(d.sum_ns)},
      {"min", static_cast<double>(d.min_ns)},
      {"max", static_cast<double>(d.max_ns)},
      {"p50", d.quantile_ns(0.50)},
      {"p90", d.quantile_ns(0.90)},
      {"p99", d.quantile_ns(0.99)},
      {"p999", d.quantile_ns(0.999)}};
  json_key(out, 4, s.name);
  out += "{\"count\": " + std::to_string(d.count);
  for (const auto& [key, value] : fields) {
    out += ", \"";
    out += key;
    out += unit;
    out += "\": " + format_double(value / scale);
  }
  out += "}";
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot,
                    const std::map<std::string, std::string>& meta) {
  std::vector<const MetricSample*> counters;
  std::vector<const MetricSample*> gauges;
  std::vector<const MetricSample*> timers;
  std::vector<const MetricSample*> histograms;
  for (const MetricSample& sample : snapshot.samples) {
    switch (sample.kind) {
      case MetricKind::kCounter: counters.push_back(&sample); break;
      case MetricKind::kGauge: gauges.push_back(&sample); break;
      case MetricKind::kTimer: timers.push_back(&sample); break;
      case MetricKind::kHistogram: histograms.push_back(&sample); break;
    }
  }

  std::string out = "{\n  \"schema\": \"dnsnoise-metrics-v2\"";
  if (!meta.empty()) {
    out += ",\n";
    json_key(out, 2, "meta");
    out += "{\n";
    bool first = true;
    for (const auto& [k, v] : meta) {
      if (!first) out += ",\n";
      first = false;
      json_key(out, 4, k);
      json_string(out, v);
    }
    out += "\n  }";
  }
  out += ",\n";

  bool first_section = true;
  object_section(out, "counters", counters, [&out](const MetricSample& s) {
    json_key(out, 4, s.name);
    out += std::to_string(s.count);
  }, first_section);
  object_section(out, "gauges", gauges, [&out](const MetricSample& s) {
    json_key(out, 4, s.name);
    out += format_double(s.value);
  }, first_section);
  object_section(out, "timers", timers, [&out](const MetricSample& s) {
    distribution_fields(out, s, 1e9, "_seconds");
  }, first_section);
  object_section(out, "histograms", histograms,
                 [&out](const MetricSample& s) {
    distribution_fields(out, s, 1.0, "");
  }, first_section);

  out += "\n}\n";
  return out;
}

}  // namespace dnsnoise::obs
