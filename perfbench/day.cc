// Day workloads: full mining days through MiningSession::run, and the
// traced day that composes the same public calls one thread at a time.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "engine/parallel_miner.h"
#include "engine/shard_merge.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dnsnoise;

constexpr ScenarioDate kDate = ScenarioDate::kDec30;
// Worker threads of the timed days.  threads(4) on a shared 4-core host
// spreads far more from run to run than threads(2) does.
constexpr std::size_t kThreads = 2;
constexpr int kSetupRepeats = 5;

struct DayPreset {
  ScenarioScale scale;
  ClusterConfig cluster;
  double warmup_fraction = 0.5;
};

/// The two day workloads.  The seed picks the day's query stream; the zone
/// population is the preset's.
DayPreset day_preset(const std::string& workload, std::uint64_t seed) {
  DayPreset preset;
  if (workload == "day-volume") {
    // fig02's volume preset: few unique names per query, so sampling and
    // the resolver dominate and mining is a sliver of the day.
    preset.scale.queries_per_day = 3'000'000;
    preset.scale.population_scale = 0.25;
    preset.scale.disposable_traffic_multiplier = 0.12;
    preset.warmup_fraction = 0.4;
  } else {
    // The share-calibrated preset: many one-off disposable names, so the
    // tap, capture, merge, labeling and mining do the most work.
    preset.scale.queries_per_day = 1'500'000;
  }
  preset.scale.client_count = preset.scale.queries_per_day / 20;
  preset.scale.traffic_stream = seed;
  preset.cluster.server_count = 4;
  return preset;
}

struct SessionDay {
  double wall_s = 0.0;
  MiningDayResult result;
};

/// One full MiningSession::run, timed from the call to its return.
SessionDay run_session_day(const DayPreset& preset, std::size_t threads) {
  MiningSession session(preset.scale);
  session.cluster(preset.cluster)
      .warmup(true, preset.warmup_fraction)
      .threads(threads);
  SessionDay day;
  const auto start = Clock::now();
  day.result = session.run(kDate);
  day.wall_s = seconds_between(start, Clock::now());
  return day;
}

ScenarioScale warmup_scale(const DayPreset& preset) {
  // Mirrors the engine's warmup day: reduced volume, distinct stream.
  ScenarioScale warm = preset.scale;
  warm.queries_per_day = static_cast<std::uint64_t>(
      static_cast<double>(warm.queries_per_day) * preset.warmup_fraction);
  warm.traffic_stream ^= 0xbeefcafeULL;
  return warm;
}

/// Set-up of a day as MiningSession::run performs it, up to the first
/// query of the measured day on shard 0: the run's Scenario, the shard's
/// Scenario and cluster, the warmup Scenario and the shard's warmup
/// traffic.  Teardown is not timed.
double time_to_first_query(const DayPreset& preset) {
  const std::int64_t day_index = scenario_day_index(kDate);
  const auto start = Clock::now();
  const Scenario run_scenario(kDate, preset.scale);
  Scenario scenario(kDate, preset.scale);
  RdnsCluster cluster(preset.cluster.for_shard(0), scenario.authority());
  Scenario warm(kDate, warmup_scale(preset));
  Question question;
  warm.traffic().run_day_shard(
      day_index - 1, {preset.cluster.server_count, 0},
      [&](SimTime ts, std::uint64_t client, const QuerySpec& query) {
        if (!question.name.assign(query.qname)) return;
        question.type = query.qtype;
        cluster.query_view(client, question, ts);
      });
  return seconds_between(start, Clock::now());
}

// --- Traced day -------------------------------------------------------------

/// Forwards tap batches to a shard's DayCapture and times them.  Batches
/// are delivered from inside query_view (batch full) and from flush_taps.
class TimedTap final : public TapObserver {
 public:
  explicit TimedTap(DayCapture& capture) : capture_(capture) {}

  void on_tap_batch(const TapBatch& batch) override {
    const Span span;
    capture_.on_tap_batch(batch);
    layer += span.elapsed();
    events += batch.size();
  }

  Layer layer;
  std::uint64_t events = 0;

 private:
  DayCapture& capture_;
};

struct TracedDay {
  // resolver.query covers query_view self time plus the cluster's build
  // and teardown.
  Layer scenario, sample, parse, query, capture, merge, label, train, mine,
      evaluate, aggregates;
  std::uint64_t hits = 0, misses = 0, hit_ns = 0, miss_ns = 0;
  std::uint64_t capture_events = 0;
  std::vector<double> shard_s;
  double wall_s = 0.0;
  MiningDayResult result;

  double covered_s() const {
    const Layer* layers[] = {&scenario, &sample, &parse,    &query,
                             &capture,  &merge,  &label,    &train,
                             &mine,     &evaluate, &aggregates};
    double sum = 0.0;
    for (const Layer* layer : layers) sum += layer->seconds();
    return sum;
  }
};

/// Runs one day by composing the calls MiningSession::run makes (scenario,
/// per-shard cluster, warmup and measured traffic, tap, merge,
/// finish_mining_day) serially on this thread, timing each call.  Findings
/// must equal MiningSession::run's: shard decomposition is fixed by the
/// server count, never by the thread count.
TracedDay run_traced_day(const DayPreset& preset) {
  const CountingScope counting;
  TracedDay t;
  const auto day_start = Clock::now();
  const std::int64_t day_index = scenario_day_index(kDate);
  const std::size_t shard_count = preset.cluster.server_count;

  PipelineOptions options;
  options.scale = preset.scale;
  options.cluster = preset.cluster;
  options.warmup = true;
  options.warmup_volume_fraction = preset.warmup_fraction;

  std::optional<Scenario> scenario;
  {
    const Span span;
    scenario.emplace(kDate, preset.scale);
    t.scenario += span.elapsed();
  }
  std::optional<DayCapture> capture(std::in_place, options.capture);
  capture->start_day(day_index);
  std::vector<ShardResult> shards;
  shards.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards.emplace_back(options.capture);
  }

  Layer fed;  // everything measured inside the feed callback
  for (std::size_t index = 0; index < shard_count; ++index) {
    const auto shard_start = Clock::now();
    ShardResult& shard = shards[index];
    std::optional<Scenario> shard_scenario;
    std::optional<RdnsCluster> cluster;
    {
      const Span span;
      shard_scenario.emplace(kDate, preset.scale);
      t.scenario += span.elapsed();
    }
    {
      const Span span;
      cluster.emplace(preset.cluster.for_shard(index),
                      shard_scenario->authority());
      t.query += span.elapsed();
    }
    TimedTap tap(shard.capture);
    Question question;
    const auto feed = [&](SimTime ts, std::uint64_t client,
                          const QuerySpec& query) {
      const auto t0 = Clock::now();
      const std::uint64_t a0 = thread_allocs();
      const bool parsed = question.name.assign(query.qname);
      const auto t1 = Clock::now();
      const std::uint64_t a1 = thread_allocs();
      const Layer parse{ns_between(t0, t1), a1 - a0};
      t.parse += parse;
      if (!parsed) {
        fed += parse;
        return;
      }
      question.type = query.qtype;
      const Layer tap_before = tap.layer;
      const QueryView view = cluster->query_view(client, question, ts);
      const auto t2 = Clock::now();
      const std::uint64_t a2 = thread_allocs();
      // Tap batches delivered inside query_view belong to the capture.
      const Layer tapped = tap.layer - tap_before;
      const Layer query_self = Layer{ns_between(t1, t2), a2 - a1} - tapped;
      t.query += query_self;
      if (view.cache_hit) {
        ++t.hits;
        t.hit_ns += query_self.ns;
      } else {
        ++t.misses;
        t.miss_ns += query_self.ns;
      }
      fed += Layer{ns_between(t0, t2), a2 - a0};
    };
    // The generator's self time is its call minus the feed callbacks.
    const auto generate = [&](TrafficGenerator& traffic, std::int64_t day) {
      const Layer fed_before = fed;
      const Span span;
      traffic.run_day_shard(day, {shard_count, index}, feed);
      t.sample += span.elapsed() - (fed - fed_before);
    };

    {
      std::optional<Scenario> warm;
      {
        const Span span;
        warm.emplace(kDate, warmup_scale(preset));
        t.scenario += span.elapsed();
      }
      generate(warm->traffic(), day_index - 1);
      const Span span;
      warm.reset();
      t.scenario += span.elapsed();
    }
    shard.capture.start_day(day_index);
    cluster->add_tap_observer(&tap);
    generate(shard_scenario->traffic(), day_index);
    {
      // flush_taps delivers the last batch; count all of it as capture.
      const Layer tap_before = tap.layer;
      const Span span;
      cluster->flush_taps();
      cluster->remove_tap_observer(&tap);
      t.capture += tap_before;
      t.capture += span.elapsed();
    }
    t.capture_events += tap.events;
    shard.counters.stats = cluster->aggregate_stats();
    shard.counters.below_answers = cluster->below_answers();
    shard.counters.above_answers = cluster->above_answers();
    shard.counters.dnssec_validations = cluster->dnssec_validations();
    shard.counters.dnssec_disposable_validations =
        cluster->dnssec_disposable_validations();
    shard.counters.answered_misses = cluster->answered_misses();
    shard.counters.disposable_answered_misses =
        cluster->disposable_answered_misses();
    {
      const Span span;
      cluster.reset();
      t.query += span.elapsed();
    }
    {
      const Span span;
      shard_scenario.reset();
      t.scenario += span.elapsed();
    }
    t.shard_s.push_back(seconds_between(shard_start, Clock::now()));
  }

  std::string merge_error;
  {
    const Span span;
    merge_shards(shards, *capture, merge_error);
    t.merge += span.elapsed();
  }
  {
    const Span span;
    shards.clear();  // shard captures
    t.capture += span.elapsed();
  }
  if (!merge_error.empty()) {
    t.result.status = MiningDayStatus::kInvalidConfig;
    t.result.error = merge_error;
    return t;
  }

  // finish_mining_day times label/train/evaluate into this registry; the
  // mine call is timed by the MineFn; the rest of the call is aggregates.
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  Layer before_mine, after_mine;
  const Span finish_span;
  const MineFn mine = [&](const DisposableZoneMiner& miner,
                          DomainNameTree& tree,
                          const CacheHitRateTracker& chr) {
    before_mine = finish_span.elapsed();
    const Span span;
    std::vector<DisposableZoneFinding> findings =
        mine_zones_parallel(miner, tree, chr, *options.miner.psl, 1);
    t.mine += span.elapsed();
    after_mine = finish_span.elapsed();
    return findings;
  };
  t.result = finish_mining_day(*capture, *scenario, options, mine);
  const Layer finish = finish_span.elapsed();

  // Paused: re-run training and evaluation on the same inputs, untimed
  // by the day, to split the allocations that finish_mining_day makes
  // between label/train and evaluate/aggregates (both are deterministic).
  const auto pause_start = Clock::now();
  Layer train_allocs, evaluate_allocs;
  if (t.result.ok()) {
    const Span span;
    LadTree model(options.model);
    model.train(to_dataset(t.result.labeled));
    train_allocs = span.elapsed();
    const Span eval_span;
    evaluate_findings(t.result.findings, scenario->truth());
    evaluate_allocs = eval_span.elapsed();
  }
  const double paused_s = seconds_between(pause_start, Clock::now());

  const auto timer_ns = [&registry](const char* name) {
    return registry.timer(name).total_ns();
  };
  const Layer label_train = before_mine;
  t.train = {timer_ns("miner.train"), train_allocs.allocs};
  t.label = {timer_ns("miner.label"), label_train.allocs - t.train.allocs};
  const Layer eval_aggregates = finish - after_mine;
  t.evaluate = {timer_ns("miner.evaluate"), evaluate_allocs.allocs};
  // What finish_mining_day spends outside its timed children: the
  // DayAggregates pass plus its own bookkeeping.
  t.aggregates = {
      label_train.ns - t.label.ns - t.train.ns +
          (eval_aggregates.ns - t.evaluate.ns),
      eval_aggregates.allocs - t.evaluate.allocs};
  {
    const Span span;
    capture.reset();
    t.capture += span.elapsed();
  }
  {
    const Span span;
    scenario.reset();
    t.scenario += span.elapsed();
  }
  t.wall_s = seconds_between(day_start, Clock::now()) - paused_s;
  return t;
}

void add_layer(Report& report, const std::string& name, const Layer& layer) {
  report.add(name + "_s", layer.seconds(), "s");
  report.add(name + ".allocs", static_cast<double>(layer.allocs), "count");
}

// --- Reports ----------------------------------------------------------------

/// Counts the threads(1) reference day as an operation.
void check_reference(Report& report, const MiningDayResult& result) {
  ++report.attempted;
  if (!result.ok()) {
    ++report.failed;
    report.fail("threads(1) reference day not ok: " + result.error);
  }
}

/// Checks one day against the reference digest; a non-ok day or a
/// different digest is a failed operation.
void check_day(Report& report, const MiningDayResult& result,
               std::uint64_t reference, const char* what) {
  ++report.attempted;
  if (!result.ok()) {
    ++report.failed;
    report.fail(std::string(what) + " day not ok: " + result.error);
  } else if (findings_digest(result) != reference) {
    ++report.failed;
    report.fail(std::string(what) + " day findings differ from threads(1)");
  }
}

Report end_to_end(const DayPreset& preset, double seconds) {
  Report report;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.push_back(time_to_first_query(preset));
  }

  // Reference: threads(1), allocations counted (never timed).
  std::uint64_t reference_allocs = 0;
  SessionDay reference;
  {
    const CountingScope counting;
    const std::uint64_t before = total_allocs();
    reference = run_session_day(preset, 1);
    reference_allocs = total_allocs() - before;
  }
  check_reference(report, reference.result);
  const std::uint64_t digest = findings_digest(reference.result);

  std::vector<double> walls;
  double rss_mb = 0.0;
  const auto start = Clock::now();
  do {
    const SessionDay day = run_session_day(preset, kThreads);
    walls.push_back(day.wall_s);
    std::fprintf(stderr, "perfbench: day %zu: %.3f s\n", walls.size(),
                 day.wall_s);
    check_day(report, day.result, digest, "timed");
    // Read after a fixed amount of work: how many days fit in the run
    // depends on the host, and the heap's high-water mark creeps with
    // each day.
    if (walls.size() == 1) rss_mb = peak_rss_mb();
  } while (seconds_between(start, Clock::now()) < seconds);

  const double queries = static_cast<double>(preset.scale.queries_per_day);
  report.add("queries_per_s", queries / median(walls), "1/s");
  report.add("setup_s", median(setup), "s");
  report.add("peak_rss_mb", rss_mb, "MB");
  report.add("allocs_per_query",
             static_cast<double>(reference_allocs) / queries, "count");
  return report;
}

Report per_layer(const DayPreset& preset) {
  Report report;
  // Untraced threads(1) days on the same input: the first is the digest
  // reference and warms the heap, the one after the traced day is the
  // baseline of the tracing overhead.
  const SessionDay reference = run_session_day(preset, 1);
  check_reference(report, reference.result);
  const std::uint64_t digest = findings_digest(reference.result);
  const TracedDay t = run_traced_day(preset);
  check_day(report, t.result, digest, "traced");
  const SessionDay baseline = run_session_day(preset, 1);
  check_day(report, baseline.result, digest, "untraced");

  const double coverage = t.covered_s() / t.wall_s;
  if (coverage < 0.95) {
    report.fail("trace coverage " + std::to_string(coverage) +
                " is below 0.95");
  }
  add_layer(report, "workload.scenario", t.scenario);
  add_layer(report, "workload.sample", t.sample);
  add_layer(report, "dns.parse", t.parse);
  add_layer(report, "resolver.query", t.query);
  const auto per = [](std::uint64_t total, std::uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
  };
  report.add("resolver.hit_ns", per(t.hit_ns, t.hits), "ns");
  report.add("resolver.miss_ns", per(t.miss_ns, t.misses), "ns");
  report.add("resolver.hit_ratio", per(t.hits, t.hits + t.misses), "ratio");
  add_layer(report, "miner.capture", t.capture);
  report.add("miner.capture_events", static_cast<double>(t.capture_events),
             "count");
  report.add("engine.shard_max_s",
             *std::max_element(t.shard_s.begin(), t.shard_s.end()), "s");
  double shard_sum = 0.0;
  for (const double s : t.shard_s) shard_sum += s;
  report.add("engine.shard_mean_s",
             shard_sum / static_cast<double>(t.shard_s.size()), "s");
  add_layer(report, "engine.merge", t.merge);
  add_layer(report, "miner.label", t.label);
  add_layer(report, "ml.train", t.train);
  add_layer(report, "engine.mine", t.mine);
  add_layer(report, "miner.evaluate", t.evaluate);
  add_layer(report, "miner.aggregates", t.aggregates);
  report.add("miner.unique_names",
             static_cast<double>(t.result.aggregates.unique_queried), "count");
  report.add("miner.chr_rrs",
             static_cast<double>(t.result.aggregates.unique_rrs), "count");
  report.add("miner.findings", static_cast<double>(t.result.findings.size()),
             "count");
  report.add("trace.coverage", coverage, "ratio");
  report.add("trace.overhead_s", t.wall_s - baseline.wall_s, "s");
  report.add("trace.wall_s", t.wall_s, "s");
  add_serve_ledger(report, preset.scale.traffic_stream);
  return report;
}

}  // namespace

Report run_day_workload(const RunOptions& options) {
  const DayPreset preset = day_preset(options.workload, options.seed);
  return options.trace ? per_layer(preset)
                       : end_to_end(preset, options.seconds);
}

}  // namespace perfbench
