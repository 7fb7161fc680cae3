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

void TrafficGenerator::add_model(std::shared_ptr<ZoneModel> model,
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

std::size_t TrafficGenerator::pick_model(Rng& rng) const {
  const double u = rng.uniform() * cumulative_weights_.back();
  const auto it = std::upper_bound(cumulative_weights_.begin(),
                                   cumulative_weights_.end(), u);
  const auto idx = static_cast<std::size_t>(it - cumulative_weights_.begin());
  return std::min(idx, models_.size() - 1);
}

void TrafficGenerator::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    queries_generated_ = nullptr;
    shard_slots_skipped_ = nullptr;
    days_generated_ = nullptr;
    return;
  }
  queries_generated_ = &metrics->counter("workload.queries_generated");
  shard_slots_skipped_ = &metrics->counter("workload.shard_slots_skipped");
  days_generated_ = &metrics->counter("workload.days_generated");
}

void TrafficGenerator::set_trace(obs::TraceCollector* trace,
                                 std::uint32_t shard) {
  trace_ = trace;
  if (trace == nullptr) {
    trace_stream_ = nullptr;
    return;
  }
  trace_stream_ = &trace->stream(obs::TraceStage::kWorkload, shard);
  // Same phase-derivation as the cluster's sampler: a pure function of
  // (seed, shard), so the sampled emission subset is thread-count
  // invariant.
  trace_sampler_ = trace->sampler(shard_seed(config_.seed, shard));
}

std::uint64_t TrafficGenerator::client_id_for_rank(
    std::size_t rank) const noexcept {
  // Stable opaque IDs; never 0 (0 marks "no client" in above-tap entries).
  return 1 + mix64(config_.seed ^ (0xc11e57ULL + rank));
}

void TrafficGenerator::run_day_shard(std::int64_t day, const ShardSpec& shard,
                                     const QuerySink& sink) {
  if (models_.empty()) {
    throw std::logic_error("TrafficGenerator: no models registered");
  }
  if (shard.count == 0 || shard.index >= shard.count) {
    throw std::invalid_argument("TrafficGenerator: bad shard spec");
  }
  if (days_generated_ != nullptr) days_generated_->add();
  obs::StageSpan day_span(nullptr, trace_stream_, trace_,
                          obs::TraceOp::kWorkloadDay);
  day_span.annotate({}, 0, obs::TraceOutcome::kNone,
                    static_cast<std::uint64_t>(day));
  const SimTime day_start = day * kSecondsPerDay;
  const double diurnal_total = config_.diurnal.total();
  QuerySpec query;  // reused across every query of the day
  std::uint64_t slot = 0;  // global query index across the whole day
  for (int hour = 0; hour < 24; ++hour) {
    const auto count = static_cast<std::uint64_t>(
        static_cast<double>(config_.queries_per_day) *
            config_.diurnal.weight(hour) / diurnal_total +
        0.5);
    if (count == 0) continue;
    const SimTime hour_start = day_start + hour * kSecondsPerHour;
    const double spacing =
        static_cast<double>(kSecondsPerHour) / static_cast<double>(count);
    for (std::uint64_t i = 0; i < count; ++i, ++slot) {
      // Per-slot stream: every shard derives the same Rng for a given slot,
      // so a slot's draws don't depend on which other slots ran before it.
      Rng q = rng_.fork(mix64(static_cast<std::uint64_t>(day)) ^ slot);
      const SimTime ts =
          hour_start +
          static_cast<SimTime>((static_cast<double>(i) + q.uniform()) *
                               spacing);
      const std::uint64_t client =
          client_id_for_rank(client_activity_.sample(q));
      // Shard filter after the client draw: skipped slots cost one fork and
      // one Zipf sample, never a zone-model mutation.
      if (shard_of(client, shard.count) != shard.index) {
        if (shard_slots_skipped_ != nullptr) shard_slots_skipped_->add();
        continue;
      }
      // Sample after the shard filter: the sampler counts *emitted*
      // queries, the same sequence every thread count replays.
      const bool traced =
          trace_stream_ != nullptr && trace_sampler_.sample();
      const std::uint64_t sample_start = traced ? trace_->now_ns() : 0;
      models_[pick_model(q)]->sample_query_into(query, q);
      if (traced) {
        trace_stream_->span(obs::TraceOp::kWorkloadSample, sample_start,
                            trace_->now_ns() - sample_start, query.qname,
                            static_cast<std::uint16_t>(query.qtype));
      }
      if (queries_generated_ != nullptr) queries_generated_->add();
      sink(std::min(ts, day_start + kSecondsPerDay - 1), client, query);
    }
  }
}

}  // namespace dnsnoise
