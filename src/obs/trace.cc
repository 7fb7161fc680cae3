#include "obs/trace.h"

#include <algorithm>

namespace dnsnoise::obs {

std::string_view trace_op_name(TraceOp op) noexcept {
  switch (op) {
    case TraceOp::kWorkloadDay: return "workload.day";
    case TraceOp::kWorkloadSample: return "workload.sample";
    case TraceOp::kClusterQuery: return "cluster.query";
    case TraceOp::kEngineShard: return "engine.shard";
    case TraceOp::kEngineMerge: return "engine.merge";
    case TraceOp::kEngineClassify: return "engine.classify";
    case TraceOp::kMinerLabel: return "miner.label";
    case TraceOp::kMinerTrain: return "miner.train";
    case TraceOp::kMinerMine: return "miner.mine";
    case TraceOp::kMinerEvaluate: return "miner.evaluate";
    case TraceOp::kMinerZone: return "miner.zone";
    case TraceOp::kMinerGroupClassify: return "miner.group_classify";
    case TraceOp::kMinerDecolor: return "miner.decolor";
  }
  return "unknown";
}

std::string_view trace_stage_name(TraceStage stage) noexcept {
  switch (stage) {
    case TraceStage::kWorkload: return "workload";
    case TraceStage::kCluster: return "cluster";
    case TraceStage::kEngine: return "engine";
    case TraceStage::kMiner: return "miner";
  }
  return "unknown";
}

std::vector<TraceEvent> TraceStream::drain_ordered() const {
  const std::uint64_t n = next_.load(std::memory_order_relaxed);
  const std::size_t capacity = ring_.size();
  std::vector<TraceEvent> out;
  if (n == 0 || capacity == 0) return out;
  const std::size_t live =
      n < capacity ? static_cast<std::size_t>(n) : capacity;
  out.reserve(live);
  // Oldest surviving event first: when the ring wrapped, that is the slot
  // the next claim would overwrite.
  const std::uint64_t first = n < capacity ? 0 : n - capacity;
  for (std::uint64_t i = first; i < n; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i % capacity)]);
  }
  return out;
}

TraceCollector::TraceCollector(TraceConfig config)
    : config_(config), epoch_(std::chrono::steady_clock::now()) {
  if (config_.sample_every_n == 0) config_.sample_every_n = 1;
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
}

TraceStream& TraceCollector::stream(TraceStage stage, std::uint32_t shard) {
  std::lock_guard lock(mutex_);
  const auto key =
      std::make_pair(static_cast<std::uint8_t>(stage), shard);
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    it = streams_
             .emplace(key, std::make_unique<TraceStream>(
                               stage, shard, config_.ring_capacity))
             .first;
  }
  return *it->second;
}

std::size_t TraceCollector::stream_count() const {
  std::lock_guard lock(mutex_);
  return streams_.size();
}

TraceSnapshot TraceCollector::snapshot() const {
  std::lock_guard lock(mutex_);
  TraceSnapshot out;
  out.config = config_;
  // streams_ is keyed on (stage, shard), so iteration — and therefore the
  // snapshot and its JSON form — is (stage, shard)-sorted for free.
  for (const auto& [key, stream] : streams_) {
    out.dropped += stream->dropped();
    for (TraceEvent& event : stream->drain_ordered()) {
      out.events.push_back({stream->stage(), stream->shard(), event});
    }
  }
  return out;
}

}  // namespace dnsnoise::obs
