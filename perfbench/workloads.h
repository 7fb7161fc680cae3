// The benchmark's workloads.  Each returns the metrics of the requested
// kind (options.trace: per-layer ledger, else end-to-end) and counts every
// checked operation in Report::attempted / Report::failed.
#pragma once

#include <cstdint>

#include "common.h"

namespace perfbench {

/// "day-disposable" and "day-volume": full mining days (day.cc).  The
/// traced run also appends the serving path's ledger.
Report run_day_workload(const RunOptions& options);

/// Appends the serving path's per-layer ledger: a served mining day under
/// open-loop load over loopback UDP plus an in-process replay (serve.cc).
void add_serve_ledger(Report& report, std::uint64_t seed);

}  // namespace perfbench
