// Shared plumbing for the figure/table reproduction harnesses.
//
// Every bench binary is standalone: it generates its scenario
// deterministically, runs the measurement, and prints the rows/series the
// corresponding figure or table of the paper reports, followed by a
// "paper vs measured" recap (EXPERIMENTS.md records these side by side).
#pragma once

#include <cstdio>
#include <string>

#include "engine/parallel_miner.h"
#include "ml/lad_tree.h"
#include "obs/json_snapshot.h"
#include "obs/metrics.h"
#include "util/strings.h"
#include "util/table.h"

namespace dnsnoise::bench {

/// Default scaled-ISP volume used by the share-calibrated experiments.
inline ScenarioScale default_scale(std::uint64_t queries_per_day = 400'000) {
  ScenarioScale scale;
  scale.queries_per_day = queries_per_day;
  scale.client_count = queries_per_day / 20;
  return scale;
}

/// Worker threads of every figure binary.  Threads only schedule the
/// per-server shards, so the printed figures do not depend on this.
inline constexpr std::size_t kBenchThreads = 4;

/// A mining session at the default scaled-ISP volume.
inline MiningSession default_session(
    std::uint64_t queries_per_day = 400'000) {
  MiningSession session(default_scale(queries_per_day));
  session.threads(kBenchThreads);
  return session;
}

inline void print_header(const std::string& id, const std::string& title) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("==========================================================\n");
}

inline void print_claim(const std::string& paper, const std::string& measured) {
  std::printf("  paper:    %s\n  measured: %s\n", paper.c_str(),
              measured.c_str());
}

/// Serializes `registry` through the obs JSON exporter into
/// BENCH_<bench_name>.json in the working directory (the file
/// tools/check_bench_regression.py compares against its committed
/// baseline).  Returns the path, or "" if the file could not be written.
inline std::string write_bench_json(const std::string& bench_name,
                                    const obs::MetricsRegistry& registry) {
  const std::string path = "BENCH_" + bench_name + ".json";
  const std::string json =
      obs::to_json(registry.snapshot(), {{"bench", bench_name}});
  if (!obs::write_json_file(path, json)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return "";
  }
  return path;
}

/// Trains the campaign's reference LAD tree the way the paper did: one
/// model from one labeled day (we use the 11/14 scenario, nearest to the
/// paper's 11/10 labeling date), then applied across all dates.
inline LadTree train_reference_model(std::uint64_t queries_per_day = 400'000) {
  LabelerConfig labeler;
  labeler.min_group_size = 10;
  const ScenarioScale scale = default_scale(queries_per_day);
  DayCapture capture;
  default_session(queries_per_day).simulate(ScenarioDate::kNov14, capture);
  const Scenario scenario(ScenarioDate::kNov14, scale);
  const Dataset data = to_dataset(
      label_zones(capture.tree(), capture.chr(), scenario, labeler));
  LadTree model;
  model.train(data);
  return model;
}

}  // namespace dnsnoise::bench
