// Fig. 2 — Traffic profile above/below the recursive DNS servers.
//
// Reproduces: hourly RR volumes for the All / NXDOMAIN / Akamai / Google
// series on both taps, the diurnal shape, caching's reduction of the above
// stream, and the NXDOMAIN asymmetry (~40% of above vs ~6% of below traffic
// in the paper; the resolvers did not honor RFC 2308 negative caching).
//
// Scale note: the paper's full 10x above/below gap needs ISP query volumes
// (billions/day); this preset reduces the disposable share and raises the
// volume so the gap direction and NX asymmetry reproduce clearly.

#include <chrono>
#include <string>
#include <string_view>

#include "bench_common.h"
#include "engine/parallel_miner.h"
#include "obs/json_writer.h"
#include "obs/telemetry_server.h"
#include "obs/trace_export.h"

using namespace dnsnoise;
using namespace dnsnoise::bench;

int main(int argc, char** argv) {
  // --trace=FILE additionally records day 0 with sampled event tracing
  // (1 in 64) and writes the dnsnoise-trace-v1 JSON there; the throughput
  // loop below stays untraced, so the gated gauges are unaffected.
  // --serve=PORT turns on the live telemetry endpoint (DESIGN.md §13) for
  // the whole run and --days=N extends the day loop — together they are
  // the multi-day continuous mode: scrape /metrics, /healthz, and the
  // /traffic sketch snapshot (DESIGN.md §17) on 127.0.0.1:PORT while the
  // bench runs full mining days (each day's findings arm the next day's
  // live disposable classifier).
  std::string trace_path;
  int days = 2;
  unsigned long serve_port = 0;
  bool serve = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = std::string(arg.substr(8));
    } else if (arg.rfind("--serve=", 0) == 0) {
      serve = true;
      serve_port = std::stoul(std::string(arg.substr(8)));
      if (serve_port > 65535) {
        std::fprintf(stderr, "--serve: port out of range\n");
        return 2;
      }
    } else if (arg.rfind("--days=", 0) == 0) {
      days = std::stoi(std::string(arg.substr(7)));
      if (days < 1) {
        std::fprintf(stderr, "--days: need at least one day\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace=FILE] [--serve=PORT] [--days=N]\n",
                   argv[0]);
      return 2;
    }
  }

  print_header("Fig. 2", "traffic above/below the RDNS cluster (" +
                             std::to_string(days) + " days)");

  // Fig. 2 preset: a volume study, not a unique-share study.  The paper's
  // 10x caching gap arises from ISP per-name query volumes (~330 queries
  // per unique name/day); we push the same direction as far as a laptop
  // budget allows: more volume over a smaller namespace, a 2-server
  // cluster, and the disposable share of *volume* at its realistic small
  // value.
  ScenarioScale scale = default_scale(1'500'000);
  scale.population_scale = 0.25;
  scale.disposable_traffic_multiplier = 0.12;
  ClusterConfig cluster;
  cluster.server_count = 2;
  const double warmup_fraction = 0.4;

  DayCapture capture;

  TextTable table({"day", "hour", "below_all", "below_nx", "below_akamai",
                   "below_google", "above_all", "above_nx"});
  double below_total = 0.0;
  double above_total = 0.0;
  double below_nx = 0.0;
  double above_nx = 0.0;
  std::uint64_t peak_hour_volume = 0;
  std::uint64_t trough_hour_volume = ~0ULL;

  const std::int64_t base_day = scenario_day_index(ScenarioDate::kDec30);
  // One session for the whole campaign: with --serve its registry and
  // telemetry server persist across days, so counters accumulate and a
  // scraper sees the run continuously instead of per-day resets.
  MiningSession session(scale);
  session.cluster(cluster).warmup(true, warmup_fraction).threads(4);
  if (serve) {
    // The streaming introspection plane rides along: /traffic serves the
    // live dnsnoise-traffic-v1 sketch snapshot while the days simulate,
    // and each finished day arms the next day's live classifier with the
    // zones it just mined (pipe it through tools/dnsnoise-inspect).
    session.enable_traffic_sketch(true);
    session.enable_telemetry(true, static_cast<std::uint16_t>(serve_port));
    if (!session.telemetry()->running()) {
      std::fprintf(stderr, "telemetry: %s\n",
                   session.telemetry()->error().c_str());
      return 1;
    }
    std::printf("serving telemetry on http://127.0.0.1:%u/ "
                "(/metrics /healthz /trace /traffic)\n",
                static_cast<unsigned>(session.telemetry()->port()));
    std::fflush(stdout);
  }
  for (int day = 0; day < days; ++day) {
    // Each day draws a fresh query stream; warmup pre-heats the caches so
    // every day runs at steady state.
    ScenarioScale day_scale = scale;
    day_scale.traffic_stream = static_cast<std::uint64_t>(day);
    session.scale(day_scale);
    const bool traced = day == 0 && !trace_path.empty();
    if (traced) session.enable_tracing(true, 64);
    if (serve) {
      // Full mining day: each finished day's findings arm the live
      // classifier that /traffic applies to the next day's stream
      // (yesterday's model on today's traffic, the paper's protocol).
      const MiningDayResult result =
          session.run(ScenarioDate::kDec30, capture, base_day + day);
      if (!result.ok()) {
        std::fprintf(stderr, "day %d failed: %s\n", day,
                     result.error.c_str());
        return 1;
      }
    } else {
      const EngineReport report =
          session.simulate(ScenarioDate::kDec30, capture, base_day + day);
      if (!report.ok()) {
        std::fprintf(stderr, "day %d failed: %s\n", day,
                     report.error.c_str());
        return 1;
      }
    }
    if (traced) {
      const std::string json = obs::to_json(
          session.trace()->snapshot(),
          {{"bench", "fig02"}, {"day", std::to_string(base_day + day)}});
      if (!obs::write_json_file(trace_path, json)) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", trace_path.c_str());
      session.enable_tracing(false);  // the remaining days run untraced
    }

    const HourlySeries& below = capture.below_series();
    const HourlySeries& above = capture.above_series();
    for (int hour = 0; hour < 24; ++hour) {
      const auto h = static_cast<std::size_t>(hour);
      table.add_row({"d" + std::to_string(day),
                     std::to_string(hour), with_commas(below.total[h]),
                     with_commas(below.nxdomain[h]),
                     with_commas(below.akamai[h]),
                     with_commas(below.google[h]), with_commas(above.total[h]),
                     with_commas(above.nxdomain[h])});
      peak_hour_volume = std::max(peak_hour_volume, below.total[h]);
      trough_hour_volume = std::min(trough_hour_volume, below.total[h]);
    }
    below_total += static_cast<double>(below.sum_total());
    above_total += static_cast<double>(above.sum_total());
    below_nx += static_cast<double>(below.sum_nxdomain());
    above_nx += static_cast<double>(above.sum_nxdomain());
  }

  std::printf("%s\n", table.render().c_str());

  std::printf("Caching gap (above vs below volume):\n");
  print_claim("order of magnitude less traffic above than below",
              "above/below = " + fixed(above_total / below_total, 3) +
                  " (direction reproduces; magnitude is volume-limited, "
                  "see EXPERIMENTS.md)");
  std::printf("\nNXDOMAIN shares:\n");
  print_claim("~40% of above traffic, ~6% of below traffic",
              percent(above_nx / above_total) + " of above, " +
                  percent(below_nx / below_total) + " of below");
  std::printf("\nDiurnal effect (hourly below volume):\n");
  print_claim("traffic drops after midnight, rises from ~10am",
              "peak hour " + with_commas(peak_hour_volume) + " vs trough " +
                  with_commas(trough_hour_volume) + " (" +
                  fixed(static_cast<double>(peak_hour_volume) /
                            static_cast<double>(trough_hour_volume),
                        2) +
                  "x)");

  // Engine throughput: the same day-0 preset re-simulated at increasing
  // worker thread counts.  The figure's 2-server cluster would cap shard
  // parallelism at 2, so the throughput runs use an 8-shard cluster; the
  // findings are thread-count invariant, so this is pure wall-clock
  // scheduling speedup.
  ClusterConfig speed_cluster = cluster;
  speed_cluster.server_count = 8;
  std::printf("\nSharded engine throughput (day 0 preset, %d RDNS shards):\n",
              static_cast<int>(speed_cluster.server_count));
  TextTable speed({"threads", "wall_s", "events_per_sec", "speedup"});
  obs::MetricsRegistry bench_registry;
  double base_seconds = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ScenarioScale day_scale = scale;
    day_scale.traffic_stream = 0;
    DayCapture bench_capture;
    const auto start = std::chrono::steady_clock::now();
    const EngineReport report =
        MiningSession(day_scale)
            .cluster(speed_cluster)
            .warmup(true, warmup_fraction)
            .threads(threads)
            .simulate(ScenarioDate::kDec30, bench_capture, base_day);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (!report.ok()) {
      std::fprintf(stderr, "threads=%zu failed: %s\n", threads,
                   report.error.c_str());
      return 1;
    }
    if (threads == 1) base_seconds = seconds;
    const double events =
        static_cast<double>(report.queries) +
        static_cast<double>(report.counters.above_answers);
    speed.add_row({std::to_string(threads), fixed(seconds, 2),
                   with_commas(static_cast<std::uint64_t>(events / seconds)),
                   fixed(base_seconds / seconds, 2) + "x"});
    const std::string prefix =
        "engine_day.threads" + std::to_string(threads);
    bench_registry.gauge(prefix + ".wall_seconds").set(seconds);
    bench_registry.gauge(prefix + ".events_per_sec").set(events / seconds);
  }
  std::printf("%s\n", speed.render().c_str());

  const std::string bench_path = write_bench_json("fig02", bench_registry);
  if (bench_path.empty()) return 1;
  std::printf("wrote %s\n", bench_path.c_str());
  return 0;
}
