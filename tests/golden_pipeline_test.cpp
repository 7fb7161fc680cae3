// Golden mining-day regression tests.
//
// These pin the exact observable output of a fixed-seed mining day on the
// sharded engine, so hot-path refactors (name interning, flat tree,
// intrusive LRU) can prove they are behavior-preserving byte for byte:
// findings, tree/CHR tallies, cache stats, hourly series, and the
// deterministic counter section of the metrics snapshot.
//
// To regenerate after an *intentional* behavior change, run with
// DNSNOISE_GOLDEN_PRINT=1 and paste the printed literals below.
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "engine/parallel_miner.h"

namespace dnsnoise {
namespace {

void append_num(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void append_findings(std::string& out,
                     const std::vector<DisposableZoneFinding>& findings) {
  for (const DisposableZoneFinding& f : findings) {
    out += f.zone;
    out += '|';
    out += std::to_string(f.depth);
    out += '|';
    out += std::to_string(f.group_size);
    out += '|';
    append_num(out, f.confidence);
    for (const double v : f.features.as_array()) {
      out += '|';
      append_num(out, v);
    }
    out += '\n';
  }
}

void append_capture(std::string& out, const DayCapture& capture) {
  out += "tree:" + std::to_string(capture.tree().node_count()) + "/" +
         std::to_string(capture.tree().black_count());
  out += " chr:" + std::to_string(capture.chr().unique_rrs());
  out += " uniq:" + std::to_string(capture.unique_queried()) + "/" +
         std::to_string(capture.unique_resolved());
  out += " below:" + std::to_string(capture.below_series().sum_total()) + "/" +
         std::to_string(capture.below_series().sum_nxdomain());
  out += " above:" + std::to_string(capture.above_series().sum_total()) + "/" +
         std::to_string(capture.above_series().sum_nxdomain());
  out += '\n';
}

void append_result(std::string& out, const MiningDayResult& result) {
  out += "labeled:" + std::to_string(result.labeled.size());
  out += " findings:" + std::to_string(result.findings.size());
  out += " agg:" + std::to_string(result.aggregates.unique_queried) + "/" +
         std::to_string(result.aggregates.unique_resolved) + "/" +
         std::to_string(result.aggregates.unique_rrs) + "/" +
         std::to_string(result.aggregates.disposable_queried) + "/" +
         std::to_string(result.aggregates.disposable_resolved) + "/" +
         std::to_string(result.aggregates.disposable_rrs);
  out += '\n';
  append_findings(out, result.findings);
}

/// The "counters" section of a dnsnoise-metrics-v1 snapshot: the
/// deterministic part (gauges/timers carry wall-clock values).
std::string counters_section(const std::string& json) {
  const auto begin = json.find("\"counters\"");
  const auto end = json.find("\"gauges\"");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return "<malformed>";
  }
  return json.substr(begin, end - begin);
}

ScenarioScale golden_scale() {
  ScenarioScale scale;
  scale.queries_per_day = 30'000;
  scale.client_count = 1'500;
  return scale;
}

struct EngineFingerprint {
  std::string capture;  // tree / chr / uniq / below / above tallies
  std::string result;   // status, findings, aggregates, counters
};

EngineFingerprint engine_fingerprint() {
  ClusterConfig cluster;
  cluster.server_count = 4;
  cluster.cache.capacity = 1 << 14;
  MiningSession session(golden_scale());
  session.cluster(cluster).threads(2).enable_metrics(true);
  DayCapture capture;
  const MiningDayResult result = session.run(
      ScenarioDate::kDec30, capture, scenario_day_index(ScenarioDate::kDec30));
  EngineFingerprint out;
  append_capture(out.capture, capture);
  out.result +=
      "status:" + std::to_string(static_cast<int>(result.status)) + "\n";
  append_result(out.result, result);
  out.result += counters_section(result.metrics_json);
  out.result += '\n';
  return out;
}

bool print_mode() {
  const char* env = std::getenv("DNSNOISE_GOLDEN_PRINT");
  return env != nullptr && env[0] == '1';
}

// Golden literals captured from the pre-interning seed implementation
// (PR 2 state); the hot-path refactor must reproduce them exactly.
#include "golden_pipeline_expected.inc"

TEST(GoldenPipelineTest, ShardedEngineDayIsByteIdentical) {
  const EngineFingerprint got = engine_fingerprint();
  if (print_mode()) {
    std::printf("=== engine capture ===\n%s=== end ===\n",
                got.capture.c_str());
    std::printf("=== engine ===\n%s=== end ===\n", got.result.c_str());
    GTEST_SKIP() << "print mode";
  }
  EXPECT_EQ(got.capture, std::string(kGoldenEngineCapture));
  EXPECT_EQ(got.result, std::string(kGoldenEngine));
}

}  // namespace
}  // namespace dnsnoise
