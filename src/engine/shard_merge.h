// Per-shard capture slots and their deterministic merge.
//
// The engine partitions a simulated day by RDNS server (client-hash
// balancing makes each server's traffic — and so its cache — independent of
// the others), runs one ShardResult per server on the thread pool, and then
// merges the shards *in shard-index order*.  Every merge operation used here
// is either order-independent (CHR sums, black-flag ORs) or made
// deterministic by the fixed merge order (first-sight name lists, appended
// CHR entries and tree children) plus a final stable time sort of the fpDNS
// entries, so the merged capture is a pure function of the scenario, never
// of the thread schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "miner/day_capture.h"
#include "resolver/dns_cache.h"

namespace dnsnoise {

/// Cluster-side counters of one shard (mirrors the RdnsCluster accessors).
struct ShardCounters {
  DnsCacheStats stats;
  std::uint64_t below_answers = 0;
  std::uint64_t above_answers = 0;
  std::uint64_t dnssec_validations = 0;
  std::uint64_t dnssec_disposable_validations = 0;
  std::uint64_t answered_misses = 0;
  std::uint64_t disposable_answered_misses = 0;

  ShardCounters& operator+=(const ShardCounters& other) noexcept {
    accumulate(stats, other.stats);
    below_answers += other.below_answers;
    above_answers += other.above_answers;
    dnssec_validations += other.dnssec_validations;
    dnssec_disposable_validations += other.dnssec_disposable_validations;
    answered_misses += other.answered_misses;
    disposable_answered_misses += other.disposable_answered_misses;
    return *this;
  }
};

/// Everything one shard task produces.  Tasks must not throw on the pool,
/// so failures land in `error` instead.
struct ShardResult {
  explicit ShardResult(const DayCaptureConfig& config = {})
      : capture(config) {}

  DayCapture capture;
  ShardCounters counters;
  std::string error;  // empty on success
};

/// Merges `shards` (in index order) into `into`, which must already be
/// start_day()-reset for the same day, freeing each shard's capture once
/// it is merged.  Shard 0's capture moves into `into` whole (`into` keeps
/// its config); each later shard is interned into the table, then its
/// tree, CHR and name sets merge side by side through `parallel_for`
/// (serially when it is empty).  Once shard 0 is in, `into` reserves room
/// for the shards' summed sizes, which bound their union.  Counters are
/// summed into the return
/// value.  On the first shard with a non-empty error the merge stops and
/// that error is reported through `error_out`; `into` should then be
/// discarded.  After the last shard the fpDNS entries are stable-sorted by
/// time, restoring the chronological order of a single tap.  The result
/// equals a fold of every shard into an empty capture, child order aside
/// (DayCapture::merge_from).
ShardCounters merge_shards(std::vector<ShardResult>& shards, DayCapture& into,
                           std::string& error_out,
                           const ParallelFor& parallel_for = {});

}  // namespace dnsnoise
