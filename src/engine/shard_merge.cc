#include "engine/shard_merge.h"

namespace dnsnoise {

ShardCounters merge_shards(std::vector<ShardResult>& shards, DayCapture& into,
                           std::string& error_out) {
  ShardCounters total;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ShardResult& shard = shards[i];
    if (!shard.error.empty()) {
      error_out = "shard " + std::to_string(i) + ": " + shard.error;
      return total;
    }
    into.merge_from(shard.capture);
    shard.capture = DayCapture();  // frees the shard's memory before the next
    total += shard.counters;
  }
  into.fpdns().stable_sort_by_time();
  return total;
}

}  // namespace dnsnoise
