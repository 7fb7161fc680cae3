// Stable JSON export of a MetricsSnapshot.
//
// One schema serves both consumers: MiningDayResult::metrics_json (a full
// pipeline run) and the BENCH_*.json perf-trajectory files the bench
// binaries emit (tools/check_bench_regression.py gates CI on those).
//
//   {
//     "schema": "dnsnoise-metrics-v2",
//     "meta": {"bench": "micro_throughput"},          // optional, sorted
//     "counters":   {"name": 123, ...},
//     "gauges":     {"name": 1.5, ...},
//     "timers":     {"name": {"count": N, "total_seconds": s,
//                             "min_seconds": s, "max_seconds": s,
//                             "p50_seconds": s, "p90_seconds": s,
//                             "p99_seconds": s, "p999_seconds": s}, ...},
//     "histograms": {"name": {"count": N, "total": x, "min": x, "max": x,
//                             "p50": x, "p90": x, "p99": x,
//                             "p999": x}, ...}
//   }
//
// Timers and histograms are the same type (obs/latency's
// LatencyRecorder) and carry the same fields; timers record nanoseconds
// and export seconds.  Counts, totals and extremes are exact; percentiles
// come from LatencySnapshot::quantile_ns, within 1/32 of the exact rank
// value.
//
// Stability contract: keys are name-sorted, layout is fixed (2-space
// indent, one key per line), and doubles use the shortest round-trip
// representation — serializing the same snapshot twice yields byte-identical
// text, and semantically-equal registries diff clean.
#pragma once

#include <map>
#include <string>

#include "obs/json_writer.h"  // format_double / write_json_file live here
#include "obs/metrics.h"

namespace dnsnoise::obs {

/// Serializes `snapshot` (plus optional "meta" string pairs) to the schema
/// above.
std::string to_json(const MetricsSnapshot& snapshot,
                    const std::map<std::string, std::string>& meta = {});

}  // namespace dnsnoise::obs
