#include "obs/openmetrics.h"

#include <utility>

#include "obs/json_writer.h"

namespace dnsnoise::obs {

namespace {

bool valid_name_byte(char c, bool allow_colon) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || (allow_colon && c == ':');
}

std::string sanitize(std::string_view name, bool allow_colon) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out += valid_name_byte(c, allow_colon) ? c : '_';
  }
  return out;
}

/// `{a="b",c="d"}` from sanitized-name/escaped-value pairs; "" when empty.
std::string render_labels(
    const std::map<std::string, std::string>& labels,
    std::string_view extra_name = {}, std::string_view extra_value = {}) {
  if (labels.empty() && extra_name.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += sanitize(name, /*allow_colon=*/false);
    out += "=\"";
    out += openmetrics_escape_label(value);
    out += '"';
  }
  if (!extra_name.empty()) {
    if (!first) out += ',';
    out += extra_name;
    out += "=\"";
    out += openmetrics_escape_label(extra_value);
    out += '"';
  }
  out += '}';
  return out;
}

void emit_type(std::string& out, const std::string& family,
               std::string_view type) {
  out += "# TYPE ";
  out += family;
  out += ' ';
  out += type;
  out += '\n';
}

void emit_sample(std::string& out, const std::string& series,
                 const std::string& labels, const std::string& value) {
  out += series;
  out += labels;
  out += ' ';
  out += value;
  out += '\n';
}

/// A histogram family plus its `_percentile` gauge family, every value
/// divided by `scale` (1e9 turns a timer's nanoseconds into seconds).
void emit_histogram(std::string& out, const std::string& family,
                    const LatencySnapshot& d, double scale,
                    const std::map<std::string, std::string>& labels,
                    const std::string& plain_labels) {
  emit_type(out, family, "histogram");
  // Cumulative counts at the octave edges: each run of kSubCount buckets
  // is one octave (the first is the exact range [0, 32)).  Saturated
  // values sit above the top edge, so only +Inf counts them.
  constexpr std::size_t kOctave = LatencyBuckets::kSubCount;
  std::uint64_t cumulative = 0;
  for (std::size_t first = 0; first < d.counts.size(); first += kOctave) {
    const std::size_t last = first + kOctave - 1;
    std::uint64_t in_octave = 0;
    for (std::size_t i = first; i <= last; ++i) in_octave += d.counts[i];
    if (last == LatencyBuckets::kBucketCount - 1) in_octave -= d.saturated;
    if (in_octave == 0) continue;
    cumulative += in_octave;
    const double edge =
        static_cast<double>(LatencyBuckets::upper_bound(last)) / scale;
    emit_sample(out, family + "_bucket",
                render_labels(labels, "le", format_double(edge)),
                std::to_string(cumulative));
  }
  emit_sample(out, family + "_bucket", render_labels(labels, "le", "+Inf"),
              std::to_string(d.count));
  emit_sample(out, family + "_sum", plain_labels,
              format_double(static_cast<double>(d.sum_ns) / scale));
  emit_sample(out, family + "_count", plain_labels, std::to_string(d.count));
  // Tails as a companion gauge family (histogram families admit no extra
  // series, and `quantile` is reserved for summaries, so the label is `p`).
  const std::string percentile = family + "_percentile";
  emit_type(out, percentile, "gauge");
  const std::pair<const char*, double> series[] = {
      {"50", 0.50}, {"90", 0.90}, {"99", 0.99}, {"99.9", 0.999}};
  for (const auto& [p, q] : series) {
    emit_sample(out, percentile, render_labels(labels, "p", p),
                format_double(d.quantile_ns(q) / scale));
  }
}

}  // namespace

std::string openmetrics_name(std::string_view name) {
  return "dnsnoise_" + sanitize(name, /*allow_colon=*/true);
}

std::string openmetrics_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string to_openmetrics(const MetricsSnapshot& snapshot,
                           const std::map<std::string, std::string>& labels) {
  std::string out;
  out.reserve(snapshot.samples.size() * 96 + 128);
  const std::string plain_labels = render_labels(labels);
  emit_type(out, "dnsnoise_telemetry", "info");
  emit_sample(out, "dnsnoise_telemetry_info",
              render_labels(labels, "schema", "dnsnoise-openmetrics-v2"),
              "1");
  for (const MetricSample& sample : snapshot.samples) {
    const std::string family = openmetrics_name(sample.name);
    switch (sample.kind) {
      case MetricKind::kCounter:
        emit_type(out, family, "counter");
        emit_sample(out, family + "_total", plain_labels,
                    std::to_string(sample.count));
        break;
      case MetricKind::kGauge:
        emit_type(out, family, "gauge");
        emit_sample(out, family, plain_labels, format_double(sample.value));
        break;
      case MetricKind::kTimer:
        emit_histogram(out, family + "_seconds", sample.distribution, 1e9,
                       labels, plain_labels);
        break;
      case MetricKind::kHistogram:
        emit_histogram(out, family, sample.distribution, 1.0, labels,
                       plain_labels);
        break;
    }
  }
  out += "# EOF\n";
  return out;
}

}  // namespace dnsnoise::obs
