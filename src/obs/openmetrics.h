// OpenMetrics / Prometheus text exposition of a MetricsSnapshot.
//
// This is the scrape-side twin of obs/json_snapshot: the same frozen
// registry state, rendered in the exposition format Prometheus and every
// OpenMetrics parser understand (served by obs/telemetry_server on
// GET /metrics).  Mapping:
//
//   counter  stage.events        # TYPE dnsnoise_stage_events counter
//                                dnsnoise_stage_events_total 7
//   gauge    stage.rate          # TYPE dnsnoise_stage_rate gauge
//                                dnsnoise_stage_rate 1.5
//   timer    stage.span          # TYPE dnsnoise_stage_span_seconds histogram
//                                dnsnoise_stage_span_seconds_bucket{le=...}
//                                ... one per non-empty octave, ascending,
//                                closed by le="+Inf"
//                                dnsnoise_stage_span_seconds_sum / _count
//                                + dnsnoise_stage_span_seconds_percentile
//                                  {p="50"|"90"|"99"|"99.9"} gauges
//   histogram stage.sizes        the same families without the unit:
//                                dnsnoise_stage_sizes_bucket/_sum/_count
//                                + dnsnoise_stage_sizes_percentile{p=...}
//
// Timers and histograms are both obs/latency's LatencyRecorder; timers
// record nanoseconds and are exposed in seconds.  `_count` and `_sum` are
// exact, bucket counts are exact cumulative counts at octave edges (the
// recorder's bucket boundaries; `le` is the octave's exclusive upper
// edge), and the `_percentile` gauges are LatencySnapshot::quantile_ns —
// within 1/32 of the exact rank value, where a fixed set of `le` edges
// could only bound them to an octave.
//
// Metric names are sanitized ('.' and every other invalid byte become
// '_') and prefixed "dnsnoise_"; `labels` are constant labels stamped on
// every series, values escaped per the spec.  The document is
// name-sorted, byte-stable for identical registry state (the JSON
// exporters' contract), and terminated with "# EOF".
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace dnsnoise::obs {

/// Content-Type a compliant scraper expects for this document.
inline constexpr std::string_view kOpenMetricsContentType =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// A valid OpenMetrics metric name built from a registry metric name:
/// "dnsnoise_" + `name` with every byte outside [a-zA-Z0-9_:] mapped
/// to '_'.
std::string openmetrics_name(std::string_view name);

/// Label-value escaping per the exposition format: backslash, double
/// quote, and newline.  Returns the escaped body (no surrounding quotes).
std::string openmetrics_escape_label(std::string_view value);

/// Renders `snapshot` to the exposition document described above.
/// `labels` (name -> value) are attached to every emitted series; label
/// names are sanitized like metric names (without the prefix), values
/// escaped.
std::string to_openmetrics(
    const MetricsSnapshot& snapshot,
    const std::map<std::string, std::string>& labels = {});

}  // namespace dnsnoise::obs
