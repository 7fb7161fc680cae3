#include "engine/shard_merge.h"

namespace dnsnoise {

ShardCounters merge_shards(std::vector<ShardResult>& shards, DayCapture& into,
                           std::string& error_out,
                           const ParallelFor& parallel_for) {
  // The shards' sums bound their union: reserved once shard 0 is in, so
  // no merge regrows (and copies) the result's arrays or rehashes its
  // slots.
  std::size_t names = 0, rrs = 0, queried = 0, resolved = 0;
  for (const ShardResult& shard : shards) {
    names += shard.capture.names().size();
    rrs += shard.capture.chr().unique_rrs();
    queried += shard.capture.unique_queried();
    resolved += shard.capture.unique_resolved();
  }
  ShardCounters total;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ShardResult& shard = shards[i];
    if (!shard.error.empty()) {
      error_out = "shard " + std::to_string(i) + ": " + shard.error;
      return total;
    }
    // Frees the shard's memory before the next; shard 0 moves in whole.
    into.merge_from(std::move(shard.capture), parallel_for);
    if (i == 0) into.reserve(names, rrs, queried, resolved);
    total += shard.counters;
  }
  into.fpdns().stable_sort_by_time();
  return total;
}

}  // namespace dnsnoise
