// Stable JSON export of a TraceSnapshot.
//
// to_json emits schema dnsnoise-trace-v1, a Chrome-trace-event /
// Perfetto-compatible document (load it in chrome://tracing or
// ui.perfetto.dev):
//
//   {
//     "schema": "dnsnoise-trace-v1",
//     "displayTimeUnit": "ms",
//     "meta": {"sample_every_n": "64", ...},      // sorted string pairs
//     "traceEvents": [
//       {"name": "process_name", "ph": "M", "pid": 2, "tid": 0,
//        "args": {"name": "cluster"}},            // one per stage/shard
//       {"name": "cluster.query", "cat": "cluster", "ph": "X",
//        "ts": 12.345, "dur": 1.002, "pid": 2, "tid": 0,
//        "args": {"label": "x.ads.example", "qtype": 1,
//                 "outcome": "miss"}},            // spans: ph "X"
//       {"name": "miner.decolor", "cat": "miner", "ph": "i", "s": "t",
//        "ts": 99.1, "pid": 4, "tid": 0, "args": {...}},  // instants
//       ...
//     ]
//   }
//
// Mapping: pid = pipeline stage (workload=1, cluster=2, engine=3,
// miner=4), tid = shard/server index, ts/dur are microseconds since the
// collector epoch with nanosecond resolution (fixed 3 decimals).  args
// keys appear in the fixed order label, qtype, outcome, id, each omitted
// when unset — so serializing the same snapshot twice yields
// byte-identical text (the metrics exporter's stability contract).
//
// tools/dnsnoise-inspect renders the terminal views over this JSON: `summary`
// prints the per-stage wall breakdown, the top-N slowest spans and a warning
// when meta.dropped_events is above 0; `diff` compares two traces.
#pragma once

#include <map>
#include <string>

#include "obs/trace.h"

namespace dnsnoise::obs {

/// Serializes `snapshot` (plus optional "meta" string pairs, merged with
/// the built-in sample_every_n/ring_capacity/dropped entries) to the
/// schema above.
std::string to_json(const TraceSnapshot& snapshot,
                    const std::map<std::string, std::string>& meta = {});

}  // namespace dnsnoise::obs
