#include "workload/traffic_gen.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/stage_span.h"

namespace dnsnoise {

TrafficGenerator::TrafficGenerator(const TrafficConfig& config)
    : config_(config),
      rng_(config.seed),
      client_activity_(std::max<std::size_t>(config.client_count, 1),
                       config.client_zipf_s) {}

void TrafficGenerator::add_model(std::shared_ptr<const ZoneModel> model,
                                 double weight) {
  if (!model) throw std::invalid_argument("TrafficGenerator: null model");
  if (weight <= 0.0) {
    throw std::invalid_argument("TrafficGenerator: weight must be > 0");
  }
  const double base =
      cumulative_weights_.empty() ? 0.0 : cumulative_weights_.back();
  models_.push_back(std::move(model));
  cumulative_weights_.push_back(base + weight);
}

TrafficGenerator TrafficGenerator::with_config(
    const TrafficConfig& config) const {
  TrafficGenerator out(config);
  out.models_ = models_;
  out.cumulative_weights_ = cumulative_weights_;
  return out;
}

std::size_t TrafficGenerator::pick_model(Rng& rng) const {
  const double u = rng.uniform() * cumulative_weights_.back();
  const auto it = std::upper_bound(cumulative_weights_.begin(),
                                   cumulative_weights_.end(), u);
  const auto idx = static_cast<std::size_t>(it - cumulative_weights_.begin());
  return std::min(idx, models_.size() - 1);
}

std::uint64_t TrafficGenerator::client_id_for_rank(
    std::size_t rank) const noexcept {
  // Stable opaque IDs; never 0 (0 marks "no client" in above-tap entries).
  return 1 + mix64(config_.seed ^ (0xc11e57ULL + rank));
}

std::array<std::uint64_t, 24> TrafficGenerator::hour_counts() const noexcept {
  std::array<std::uint64_t, 24> counts{};
  const double diurnal_total = config_.diurnal.total();
  for (int hour = 0; hour < 24; ++hour) {
    counts[static_cast<std::size_t>(hour)] = static_cast<std::uint64_t>(
        static_cast<double>(config_.queries_per_day) *
            config_.diurnal.weight(hour) / diurnal_total +
        0.5);
  }
  return counts;
}

DayPlan TrafficGenerator::plan_day(std::int64_t day, std::size_t shard_count,
                                   const ParallelFor& parallel_for) const {
  if (shard_count == 0) {
    throw std::invalid_argument("TrafficGenerator: shard count must be >= 1");
  }
  constexpr std::uint64_t kChunk = DayPlan::kChunkSlots;
  DayPlan plan;
  plan.day_ = day;
  plan.shard_count_ = shard_count;
  std::uint64_t slot_count = 0;
  for (const std::uint64_t count : hour_counts()) slot_count += count;
  // Every block is allocated here, on the calling thread, before any
  // worker fills it.
  plan.chunks_.resize(
      static_cast<std::size_t>((slot_count + kChunk - 1) / kChunk));
  for (std::size_t c = 0; c < plan.chunks_.size(); ++c) {
    const auto slots = static_cast<std::size_t>(
        std::min(kChunk, slot_count - c * kChunk));
    plan.chunks_[c].ranks.resize(slots);
    plan.chunks_[c].by_shard.resize(slots);
    plan.chunks_[c].shard_begin.assign(shard_count + 1, 0);
  }

  const auto plan_chunk = [&](std::size_t c) {
    DayPlan::Chunk& chunk = plan.chunks_[c];
    std::vector<std::uint32_t>& begin = chunk.shard_begin;
    const auto shard_of_offset = [&](std::size_t offset) {
      return shard_of(client_id_for_rank(chunk.ranks[offset]), shard_count);
    };
    // Draw each slot's client: the slot stream's first draw is the
    // timestamp's, the second the client's (run_planned_shard repeats the
    // first and steps past the second).  Count the slots per shard.
    for (std::size_t offset = 0; offset < chunk.ranks.size(); ++offset) {
      Rng q = slot_rng(day, c * kChunk + offset);
      q();  // the timestamp draw
      chunk.ranks[offset] =
          static_cast<std::uint32_t>(client_activity_.sample(q));
      ++begin[shard_of_offset(offset) + 1];
    }
    // Counting sort by shard, using begin[] as the cursors: after the
    // scatter begin[h] is where shard h ends, so shift it back by one.
    for (std::size_t h = 1; h <= shard_count; ++h) begin[h] += begin[h - 1];
    for (std::size_t offset = 0; offset < chunk.ranks.size(); ++offset) {
      chunk.by_shard[begin[shard_of_offset(offset)]++] =
          static_cast<std::uint16_t>(offset);
    }
    for (std::size_t h = shard_count - 1; h > 0; --h) begin[h] = begin[h - 1];
    begin[0] = 0;
  };
  if (plan.chunks_.size() > 1 && parallel_for) {
    parallel_for(plan.chunks_.size(), plan_chunk);
  } else {
    for (std::size_t c = 0; c < plan.chunks_.size(); ++c) plan_chunk(c);
  }
  return plan;
}

void TrafficGenerator::run_planned_shard(const DayPlan& plan,
                                         std::size_t index,
                                         const QuerySink& sink,
                                         obs::MetricsRegistry* metrics,
                                         obs::TraceCollector* trace) const {
  if (models_.empty()) {
    throw std::logic_error("TrafficGenerator: no models registered");
  }
  if (index >= plan.shard_count()) {
    throw std::invalid_argument("TrafficGenerator: bad shard index");
  }
  obs::Counter* const queries_generated =
      metrics != nullptr ? &metrics->counter("workload.queries_generated")
                         : nullptr;
  if (metrics != nullptr) metrics->counter("workload.days_generated").add();
  obs::TraceStream* const trace_stream =
      trace != nullptr
          ? &trace->stream(obs::TraceStage::kWorkload,
                           static_cast<std::uint32_t>(index))
          : nullptr;
  // Same phase derivation as the cluster's sampler: a pure function of
  // (seed, shard), so the sampled emission subset is thread-count
  // invariant.
  obs::TraceSampler trace_sampler =
      trace != nullptr ? trace->sampler(shard_seed(config_.seed, index))
                       : obs::TraceSampler();
  obs::StageSpan day_span(nullptr, trace_stream, trace,
                          obs::TraceOp::kWorkloadDay);
  day_span.annotate({}, 0, obs::TraceOutcome::kNone,
                    static_cast<std::uint64_t>(plan.day()));

  const std::array<std::uint64_t, 24> counts = hour_counts();
  const SimTime day_start = plan.day() * kSecondsPerDay;
  std::vector<RecentNames> recent(models_.size());
  QuerySpec query;  // reused across every query of the walk
  int hour = -1;
  std::uint64_t hour_begin = 0;  // first slot of `hour`
  std::uint64_t hour_end = 0;    // one past its last slot
  SimTime hour_start = 0;
  double spacing = 0.0;
  for (std::size_t c = 0; c < plan.chunks_.size(); ++c) {
    const DayPlan::Chunk& chunk = plan.chunks_[c];
    for (std::uint32_t k = chunk.shard_begin[index];
         k < chunk.shard_begin[index + 1]; ++k) {
      const std::uint16_t offset = chunk.by_shard[k];
      const std::uint64_t slot = c * DayPlan::kChunkSlots + offset;
      if (slot >= hour_end) {
        do {
          ++hour;
          hour_begin = hour_end;
          hour_end += counts[static_cast<std::size_t>(hour)];
        } while (slot >= hour_end);
        hour_start = day_start + hour * kSecondsPerHour;
        spacing = static_cast<double>(kSecondsPerHour) /
                  static_cast<double>(hour_end - hour_begin);
      }
      Rng q = slot_rng(plan.day(), slot);
      const SimTime ts =
          hour_start + static_cast<SimTime>(
                           (static_cast<double>(slot - hour_begin) +
                            q.uniform()) *
                           spacing);
      q();  // the client draw, taken once by the plan
      const std::uint64_t client = client_id_for_rank(chunk.ranks[offset]);
      // The sampler counts *emitted* queries, the same sequence every
      // thread count replays.
      const bool traced = trace_stream != nullptr && trace_sampler.sample();
      const std::uint64_t sample_start = traced ? trace->now_ns() : 0;
      const std::size_t model = pick_model(q);
      models_[model]->sample_query_into(query, q, recent[model]);
      if (traced) {
        trace_stream->span(obs::TraceOp::kWorkloadSample, sample_start,
                           trace->now_ns() - sample_start, query.qname,
                           static_cast<std::uint16_t>(query.qtype));
      }
      if (queries_generated != nullptr) queries_generated->add();
      sink(std::min(ts, day_start + kSecondsPerDay - 1), client, query);
    }
  }
}

void TrafficGenerator::run_day_shard(std::int64_t day, const ShardSpec& shard,
                                     const QuerySink& sink) const {
  run_planned_shard(plan_day(day, shard.count), shard.index, sink);
}

}  // namespace dnsnoise
