// ISP client-population traffic generator.
//
// Draws a time-ordered stream of (timestamp, client, query) triples for a
// simulated day: total volume split over hours by the diurnal profile,
// clients drawn from a Zipf activity distribution (a few heavy households,
// a long tail of light ones), and each query delegated to a zone model
// picked by traffic weight.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workload/diurnal.h"
#include "workload/zone_model.h"

namespace dnsnoise::obs {
class Counter;
class MetricsRegistry;
}  // namespace dnsnoise::obs

namespace dnsnoise {

struct TrafficConfig {
  std::uint64_t queries_per_day = 400'000;
  std::size_t client_count = 20'000;
  double client_zipf_s = 0.8;
  DiurnalProfile diurnal{};
  std::uint64_t seed = 42;
};

class TrafficGenerator {
 public:
  explicit TrafficGenerator(const TrafficConfig& config);

  /// Adds a tenant with a relative traffic weight (> 0).
  void add_model(std::shared_ptr<ZoneModel> model, double weight);

  std::size_t model_count() const noexcept { return models_.size(); }
  const ZoneModel& model(std::size_t i) const { return *models_.at(i); }

  using QuerySink = std::function<void(SimTime ts, std::uint64_t client_id,
                                       const QuerySpec& query)>;

  /// One shard of a client-hash partitioned day (see util/rng.h shard_of).
  /// The default spec is the whole day.
  struct ShardSpec {
    std::size_t count = 1;  // total shards (RDNS server count)
    std::size_t index = 0;  // this shard, in [0, count)
  };

  /// Generates, in non-decreasing timestamp order, the queries of `day`
  /// whose clients hash to `shard.index` (shard_of(client, shard.count)).
  ///
  /// Each query slot of the day derives its own RNG stream from (day,
  /// slot), so a slot's timestamp, client and tenant choice are the same
  /// whichever shard draws it: the shards of one day split its (timestamp,
  /// client) sequence, with nothing lost or repeated.  The query itself is
  /// not fixed by the slot — disposable tenants re-query names from their
  /// own window of recently emitted names, so it also depends on what the
  /// generator emitted before.  The generator's root stream is only
  /// forked, never advanced, so the stream of a freshly built generator
  /// depends only on (seed, day, shard).
  void run_day_shard(std::int64_t day, const ShardSpec& shard,
                     const QuerySink& sink);

  /// Stable client ID for an activity rank (exposed for tests).
  std::uint64_t client_id_for_rank(std::size_t rank) const noexcept;

  /// Opt-in observability (DESIGN.md §10): registers the workload.* stage
  /// counters — queries_generated, shard_slots_skipped, days_generated.
  /// `metrics` must outlive the generator; null detaches.  Counting costs
  /// one branch + relaxed atomic per query; nothing when detached.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Opt-in event tracing (DESIGN.md §12): records one workload.day span
  /// per generated (shard-)day plus head-sampled workload.sample spans
  /// around query generation (label = qname) into the collector's
  /// workload stream for `shard`.  Sampling is phase-seeded from the
  /// generator seed and counts emitted queries, so the traced subset
  /// mirrors the cluster's for the same shard.  `trace` must outlive the
  /// generator; null detaches.
  void set_trace(obs::TraceCollector* trace, std::uint32_t shard = 0);

 private:
  TrafficConfig config_;
  Rng rng_;
  ZipfSampler client_activity_;
  std::vector<std::shared_ptr<ZoneModel>> models_;
  std::vector<double> cumulative_weights_;
  obs::Counter* queries_generated_ = nullptr;
  obs::Counter* shard_slots_skipped_ = nullptr;
  obs::Counter* days_generated_ = nullptr;
  obs::TraceCollector* trace_ = nullptr;
  obs::TraceStream* trace_stream_ = nullptr;
  obs::TraceSampler trace_sampler_;

  std::size_t pick_model(Rng& rng) const;
};

}  // namespace dnsnoise
