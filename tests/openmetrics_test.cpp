// OpenMetrics exposition (obs/openmetrics): golden-text output for a known
// registry, a parse-back pass that checks the invariants a scraper relies
// on — every series belongs to a # TYPE family, histogram buckets are
// cumulative and closed by le="+Inf", label values are escaped, and the
// document ends with # EOF — and the accuracy of the percentiles both
// exporters publish.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_snapshot.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "util/rng.h"

namespace dnsnoise::obs {
namespace {

TEST(OpenMetrics, NameIsPrefixedAndSanitized) {
  EXPECT_EQ(openmetrics_name("cluster.below_answers"),
            "dnsnoise_cluster_below_answers");
  EXPECT_EQ(openmetrics_name("engine.shard0.wall_seconds"),
            "dnsnoise_engine_shard0_wall_seconds");
  // Colons survive (valid in OpenMetrics names); everything else exotic
  // folds to '_'.
  EXPECT_EQ(openmetrics_name("a:b-c d\"e"), "dnsnoise_a:b_c_d_e");
}

TEST(OpenMetrics, EscapesLabelValues) {
  EXPECT_EQ(openmetrics_escape_label("plain"), "plain");
  EXPECT_EQ(openmetrics_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(openmetrics_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(openmetrics_escape_label("a\nb"), "a\\nb");
}

TEST(OpenMetrics, GoldenExposition) {
  MetricsRegistry registry;
  registry.counter("miner.findings").add(3);
  registry.gauge("engine.shard0.wall_seconds").set(1.5);
  const std::string text = to_openmetrics(registry.snapshot());
  EXPECT_EQ(text,
            "# TYPE dnsnoise_telemetry info\n"
            "dnsnoise_telemetry_info{schema=\"dnsnoise-openmetrics-v2\"} 1\n"
            "# TYPE dnsnoise_engine_shard0_wall_seconds gauge\n"
            "dnsnoise_engine_shard0_wall_seconds 1.5\n"
            "# TYPE dnsnoise_miner_findings counter\n"
            "dnsnoise_miner_findings_total 3\n"
            "# EOF\n");
}

TEST(OpenMetrics, ConstantLabelsAreStampedAndEscaped) {
  MetricsRegistry registry;
  registry.counter("c").add(1);
  const std::string text = to_openmetrics(
      registry.snapshot(), {{"bench", "fig\"02\\x"}, {"arch", "x86"}});
  EXPECT_NE(
      text.find("dnsnoise_c_total{arch=\"x86\",bench=\"fig\\\"02\\\\x\"} 1\n"),
      std::string::npos);
  // The info series carries the constant labels plus the schema.
  EXPECT_NE(text.find("dnsnoise_telemetry_info{arch=\"x86\","
                      "bench=\"fig\\\"02\\\\x\",schema="
                      "\"dnsnoise-openmetrics-v2\"} 1\n"),
            std::string::npos);
}

TEST(OpenMetrics, TimerBecomesSecondsHistogram) {
  MetricsRegistry registry;
  registry.timer("engine.shard").record(2'000'000'000ULL);
  registry.timer("engine.shard").record(1'000'000'000ULL);
  const std::string text = to_openmetrics(registry.snapshot());
  EXPECT_NE(text.find("# TYPE dnsnoise_engine_shard_seconds histogram\n"),
            std::string::npos);
  // One cumulative bucket per non-empty octave, edges in seconds.
  EXPECT_NE(text.find("dnsnoise_engine_shard_seconds_bucket"
                      "{le=\"1.073741824\"} 1\n"
                      "dnsnoise_engine_shard_seconds_bucket"
                      "{le=\"2.147483648\"} 2\n"
                      "dnsnoise_engine_shard_seconds_bucket"
                      "{le=\"+Inf\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dnsnoise_engine_shard_seconds_count 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("dnsnoise_engine_shard_seconds_sum 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dnsnoise_engine_shard_seconds_percentile "
                      "gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("dnsnoise_engine_shard_seconds_percentile"
                      "{p=\"50\"} 1\n"),
            std::string::npos)
      << text;
}

TEST(OpenMetrics, HistogramEmitsPercentileGauges) {
  MetricsRegistry registry;
  LatencyRecorder& histo = registry.histogram("h");
  for (int i = 0; i < 100; ++i) histo.record(100);
  const std::string text = to_openmetrics(registry.snapshot());
  EXPECT_NE(text.find("# TYPE dnsnoise_h_percentile gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("dnsnoise_h_percentile{p=\"50\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("dnsnoise_h_percentile{p=\"99.9\"} 100\n"),
            std::string::npos);
}

// --- Parse-back: a minimal exposition-format reader ------------------------

struct ParsedSeries {
  std::string name;                            // series name, labels stripped
  std::map<std::string, std::string> labels;   // raw (still escaped) values
  double value = 0.0;
};

struct ParsedExposition {
  std::map<std::string, std::string> types;  // family -> type
  std::vector<ParsedSeries> series;
  bool saw_eof = false;
};

void parse_exposition(const std::string& text, ParsedExposition* out) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line == "# EOF") {
      out->saw_eof = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const auto space = rest.find(' ');
      out->types[rest.substr(0, space)] = rest.substr(space + 1);
      continue;
    }
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    ParsedSeries series;
    const auto name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    series.name = line.substr(0, name_end);
    std::size_t pos = name_end;
    if (line[pos] == '{') {
      const auto close = line.find('}', pos);
      ASSERT_NE(close, std::string::npos) << line;
      std::string body = line.substr(pos + 1, close - pos - 1);
      std::istringstream labels(body);
      std::string pair;
      while (std::getline(labels, pair, ',')) {
        const auto eq = pair.find('=');
        ASSERT_NE(eq, std::string::npos) << line;
        std::string value = pair.substr(eq + 1);
        ASSERT_GE(value.size(), 2u);
        series.labels[pair.substr(0, eq)] =
            value.substr(1, value.size() - 2);  // strip quotes
      }
      pos = close + 1;
    }
    series.value = std::stod(line.substr(pos + 1));
    out->series.push_back(std::move(series));
  }
}

TEST(OpenMetrics, ParseBackChecksScraperInvariants) {
  MetricsRegistry registry;
  registry.counter("cluster.below_answers").add(42);
  registry.gauge("obs.run_active").set(1.0);
  registry.timer("miner.mine").record(5'000'000ULL);
  LatencyRecorder& histo = registry.histogram("cluster.tap_batch_size");
  histo.record(0);
  for (int i = 0; i < 10; ++i) histo.record(8);
  for (int i = 0; i < 5; ++i) histo.record(500);

  const std::string text =
      to_openmetrics(registry.snapshot(), {{"run", "test"}});
  ParsedExposition parsed;
  ASSERT_NO_FATAL_FAILURE(parse_exposition(text, &parsed));
  EXPECT_TRUE(parsed.saw_eof);

  // Every series maps back to a declared family (exact name, or the
  // conventional suffix of its family).
  for (const ParsedSeries& series : parsed.series) {
    bool matched = parsed.types.count(series.name) > 0;
    for (const char* suffix :
         {"_total", "_bucket", "_sum", "_count", "_info"}) {
      const std::string s(suffix);
      if (series.name.size() > s.size() &&
          series.name.compare(series.name.size() - s.size(), s.size(), s) ==
              0) {
        matched = matched ||
                  parsed.types.count(
                      series.name.substr(0, series.name.size() - s.size())) >
                      0;
      }
    }
    EXPECT_TRUE(matched) << "series without # TYPE: " << series.name;
    // Constant labels survive on every series.
    const auto run = series.labels.find("run");
    ASSERT_NE(run, series.labels.end()) << series.name;
    EXPECT_EQ(run->second, "test");
  }

  // Histogram buckets (timers included): cumulative, monotone, closed by
  // le="+Inf" whose value equals _count; _count and _sum are exact.
  const std::map<std::string, std::pair<double, double>> families = {
      {"dnsnoise_cluster_tap_batch_size", {16.0, 2580.0}},
      {"dnsnoise_miner_mine_seconds", {1.0, 0.005}}};
  for (const auto& [family, expected] : families) {
    EXPECT_EQ(parsed.types[family], "histogram") << family;
    double prev = -1.0;
    double inf_value = -1.0;
    for (const ParsedSeries& series : parsed.series) {
      if (series.name != family + "_bucket") continue;
      EXPECT_GE(series.value, prev) << "bucket counts must be cumulative";
      prev = series.value;
      if (series.labels.at("le") == "+Inf") inf_value = series.value;
    }
    EXPECT_EQ(inf_value, expected.first) << family;
    for (const ParsedSeries& series : parsed.series) {
      if (series.name == family + "_count") {
        EXPECT_EQ(series.value, expected.first) << family;
      }
      if (series.name == family + "_sum") {
        EXPECT_DOUBLE_EQ(series.value, expected.second) << family;
      }
    }
  }
  for (const ParsedSeries& series : parsed.series) {
    if (series.name == "dnsnoise_cluster_below_answers_total") {
      EXPECT_EQ(series.value, 42.0);
    }
  }
}

// --- Exported percentile accuracy ------------------------------------------

/// The number after `"<key>": ` in the JSON object of metric `name`.
double json_field(const std::string& json, const std::string& name,
                  const std::string& key) {
  const auto object = json.find("\"" + name + "\": {");
  if (object == std::string::npos) return NAN;
  const auto field = json.find("\"" + key + "\": ", object);
  if (field == std::string::npos) return NAN;
  return std::stod(json.substr(field + key.size() + 4));
}

/// The value of the exposition series line `series` (name plus labels).
double exposition_value(const std::string& text, const std::string& series) {
  const auto line = text.find("\n" + series + " ");
  if (line == std::string::npos) return NAN;
  return std::stod(text.substr(line + series.size() + 2));
}

TEST(ExportedPercentiles, WithinOneThirtySecondOfTheExactRank) {
  // Point masses and uniform spans at latency scales: both exporters must
  // publish p50/p99 within 1/32 of the exact rank value — the recorder's
  // bucket bound, not a coarse re-binning of it.
  Rng rng(2014);
  std::map<std::string, std::vector<std::uint64_t>> inputs;
  inputs["probe.point_1us_ns"].assign(1000, 1'000);
  inputs["probe.point_250us_ns"].assign(1000, 250'000);
  for (int i = 0; i < 10'000; ++i) {
    inputs["probe.uniform_1_2us_ns"].push_back(1'000 + rng.below(1'001));
    inputs["probe.uniform_40_60us_ns"].push_back(40'000 + rng.below(20'001));
  }
  MetricsRegistry registry;
  for (const auto& [name, values] : inputs) {
    auto& histogram = registry.histogram(name);
    for (const std::uint64_t v : values) histogram.record(v);
  }
  const MetricsSnapshot snapshot = registry.snapshot();
  const std::string json = to_json(snapshot);
  const std::string text = to_openmetrics(snapshot);

  for (auto& [name, values] : inputs) {
    std::sort(values.begin(), values.end());
    const std::string family = openmetrics_name(name) + "_percentile";
    const std::pair<const char*, double> points[] = {{"50", 0.50},
                                                     {"99", 0.99}};
    for (const auto& [p, q] : points) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(values.size())));
      const double exact = static_cast<double>(values[rank - 1]);
      const double bound = exact / 32;
      EXPECT_NEAR(json_field(json, name, std::string("p") + p), exact, bound)
          << name << " JSON p" << p;
      EXPECT_NEAR(exposition_value(text, family + "{p=\"" + p + "\"}"),
                  exact, bound)
          << name << " /metrics p" << p;
    }
  }
}

}  // namespace
}  // namespace dnsnoise::obs
