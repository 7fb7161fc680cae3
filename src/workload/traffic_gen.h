// ISP client-population traffic generator.
//
// Draws a time-ordered stream of (timestamp, client, query) triples for a
// simulated day: total volume split over hours by the diurnal profile,
// clients drawn from a Zipf activity distribution (a few heavy households,
// a long tail of light ones), and each query delegated to a zone model
// picked by traffic weight.
//
// A day runs in two steps.  plan_day() draws the client of every query
// slot once and splits the slots by shard (the client hash decides, see
// util/rng.h shard_of); run_planned_shard() then walks one shard's slots
// and emits their queries.  The generator and its tenants are immutable
// once built, so one generator serves every shard of a day concurrently;
// what a walk mutates — the disposable tenants' recent-name windows, the
// trace sampler — is local to that walk.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/parallel_for.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workload/diurnal.h"
#include "workload/zone_model.h"

namespace dnsnoise::obs {
class MetricsRegistry;
class TraceCollector;
}  // namespace dnsnoise::obs

namespace dnsnoise {

struct TrafficConfig {
  std::uint64_t queries_per_day = 400'000;
  std::size_t client_count = 20'000;
  double client_zipf_s = 0.8;
  DiurnalProfile diurnal{};
  std::uint64_t seed = 42;
};

/// The client draw of every query slot of one day, split by shard.  Slot
/// s of the day (the s-th query, counting across hours) owns one client,
/// drawn once while planning.  The plan is a run of fixed-size chunks of
/// consecutive slots, each holding its slots' client ranks and its slot
/// offsets grouped by shard, ascending: 6 bytes per slot, in blocks small
/// enough that the heap reuses them after the day.
class DayPlan {
 public:
  std::int64_t day() const noexcept { return day_; }
  std::size_t shard_count() const noexcept { return shard_count_; }

 private:
  friend class TrafficGenerator;

  /// Slots per chunk; a chunk's slot offsets fit in 16 bits.
  static constexpr std::uint64_t kChunkSlots = 1 << 14;

  struct Chunk {
    std::vector<std::uint32_t> ranks;        // client rank, by slot offset
    std::vector<std::uint16_t> by_shard;     // slot offsets, shard-major
    std::vector<std::uint32_t> shard_begin;  // shard_count + 1 offsets
  };

  std::int64_t day_ = 0;
  std::size_t shard_count_ = 0;
  std::vector<Chunk> chunks_;
};

class TrafficGenerator {
 public:
  explicit TrafficGenerator(const TrafficConfig& config);

  /// Adds a tenant with a relative traffic weight (> 0).  Tenants are
  /// shared, never copied: generators made by with_config() see the same
  /// instances.
  void add_model(std::shared_ptr<const ZoneModel> model, double weight);

  std::size_t model_count() const noexcept { return models_.size(); }
  const ZoneModel& model(std::size_t i) const { return *models_.at(i); }

  /// A generator with `config`'s volume, clients and seed over this
  /// generator's tenants and weights.
  TrafficGenerator with_config(const TrafficConfig& config) const;

  using QuerySink = std::function<void(SimTime ts, std::uint64_t client_id,
                                       const QuerySpec& query)>;

  /// One shard of a client-hash partitioned day (see util/rng.h shard_of).
  /// The default spec is the whole day.
  struct ShardSpec {
    std::size_t count = 1;  // total shards (RDNS server count)
    std::size_t index = 0;  // this shard, in [0, count)
  };

  /// Draws the client of every slot of `day` once and splits the slots
  /// over `shard_count` shards.  Chunks are drawn through `parallel_for`
  /// (serially when it is empty); each slot's draw depends only on (seed,
  /// day, slot), so the plan does not depend on how the chunks are
  /// scheduled.  Throws std::invalid_argument on a zero shard count.
  DayPlan plan_day(std::int64_t day, std::size_t shard_count,
                   const ParallelFor& parallel_for = {}) const;

  /// Generates, in non-decreasing timestamp order, the queries of shard
  /// `index` of `plan`, a plan this generator made.
  ///
  /// Each query slot derives its own RNG stream from (day, slot), so a
  /// slot's timestamp, client and tenant choice are the same whichever
  /// shard walks it: the shards of one day split its (timestamp, client)
  /// sequence, with nothing lost or repeated.  The query itself is not
  /// fixed by the slot — disposable tenants re-query names from a window
  /// of recently emitted names, which starts empty for each walk — so it
  /// also depends on the shard's earlier slots.  The generator's root
  /// stream is only forked, never advanced, so a walk depends only on
  /// (seed, day, shard count, shard).
  ///
  /// Opt-in observability, null-gated: `metrics` receives the workload.*
  /// counters (DESIGN.md §10) — queries_generated, days_generated — at one
  /// relaxed atomic per query; `trace` (DESIGN.md §12) receives one
  /// workload.day span plus head-sampled workload.sample spans (label =
  /// qname) in its workload stream for shard `index`.  Sampling is
  /// phase-seeded from the generator seed and counts emitted queries, so
  /// the traced subset mirrors the cluster's for the same shard.
  void run_planned_shard(const DayPlan& plan, std::size_t index,
                         const QuerySink& sink,
                         obs::MetricsRegistry* metrics = nullptr,
                         obs::TraceCollector* trace = nullptr) const;

  /// One shard of `day` in one call: plans the day serially and walks
  /// shard.index, emitting exactly what the engine's shard emits.
  void run_day_shard(std::int64_t day, const ShardSpec& shard,
                     const QuerySink& sink) const;

  /// Stable client ID for an activity rank (exposed for tests).
  std::uint64_t client_id_for_rank(std::size_t rank) const noexcept;

 private:
  TrafficConfig config_;
  Rng rng_;
  ZipfSampler client_activity_;
  std::vector<std::shared_ptr<const ZoneModel>> models_;
  std::vector<double> cumulative_weights_;

  /// Slot count of each hour of the day (the diurnal split).
  std::array<std::uint64_t, 24> hour_counts() const noexcept;
  /// The per-slot RNG stream: every shard derives the same one for a slot.
  Rng slot_rng(std::int64_t day, std::uint64_t slot) const noexcept {
    return rng_.fork(mix64(static_cast<std::uint64_t>(day)) ^ slot);
  }
  std::size_t pick_model(Rng& rng) const;
};

}  // namespace dnsnoise
