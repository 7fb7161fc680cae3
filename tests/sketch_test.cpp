// Streaming sketch primitives (obs/sketch): Space-Saving invariants and
// exact top-K recall on Zipf(1.0) traffic, HyperLogLog error bound and
// CRDT merge, the sliding-window ring, the live disposable classifier,
// and the byte-stable dnsnoise-traffic-v1 export with its deterministic
// cross-shard merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "dns/message.h"
#include "obs/metrics.h"
#include "obs/sketch/hll.h"
#include "obs/sketch/spacesaving.h"
#include "obs/sketch/traffic_sketch.h"
#include "resolver/tap.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace dnsnoise {
namespace {

using obs::HllSketch;
using obs::SpaceSavingSketch;
using obs::TrafficHeavyHitter;
using obs::TrafficSketch;
using obs::TrafficSketchConfig;
using obs::TrafficSketchPlane;
using obs::TrafficSnapshot;

// --- Space-Saving -----------------------------------------------------------

TEST(SpaceSaving, ExactBelowCapacity) {
  SpaceSavingSketch sketch(8);
  for (std::uint32_t key = 0; key < 4; ++key) {
    for (std::uint32_t i = 0; i <= key; ++i) sketch.offer(key);
  }
  EXPECT_EQ(sketch.size(), 4u);
  EXPECT_EQ(sketch.offered(), 1u + 2 + 3 + 4);
  for (const SpaceSavingSketch::Counter& counter : sketch.counters()) {
    EXPECT_EQ(counter.count, counter.key + 1u);
    EXPECT_EQ(counter.error, 0u);  // never evicted: exact
  }
}

TEST(SpaceSaving, InvariantsHoldUnderEviction) {
  // 4 counters, 20 distinct keys: constant churn.  The classic guarantees
  // must survive: counts sum to the stream length, and for every
  // monitored key count - error <= true frequency <= count.
  SpaceSavingSketch sketch(4);
  std::map<std::uint32_t, std::uint64_t> truth;
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    // Skewed synthetic stream: low keys dominate.
    const auto key = static_cast<std::uint32_t>(
        rng.below(rng.below(19) + 1));
    ++truth[key];
    sketch.offer(key);
  }
  std::uint64_t total = 0;
  for (const SpaceSavingSketch::Counter& counter : sketch.counters()) {
    total += counter.count;
    EXPECT_LE(truth[counter.key], counter.count) << counter.key;
    EXPECT_GE(truth[counter.key], counter.count - counter.error)
        << counter.key;
  }
  EXPECT_EQ(total, sketch.offered());
  EXPECT_EQ(sketch.offered(), 10'000u);
}

TEST(SpaceSaving, ExactTopKRecallOnZipfTraffic) {
  // The paper-shaped workload: Zipf(1.0) ranks.  With counters >> K the
  // monitored set must contain the true top-K exactly, and rank them in
  // the true order — this is the property the /traffic top table rides on.
  constexpr std::size_t kKeys = 10'000;
  constexpr std::size_t kStream = 200'000;
  constexpr std::size_t kTopK = 16;
  ZipfSampler zipf(kKeys, 1.0);
  Rng rng(0x5eedu);
  SpaceSavingSketch sketch(512);
  std::vector<std::uint64_t> truth(kKeys, 0);
  for (std::size_t i = 0; i < kStream; ++i) {
    const auto key = static_cast<std::uint32_t>(zipf.sample(rng));
    ++truth[key];
    sketch.offer(key);
  }

  const auto rank = [](std::vector<std::pair<std::uint64_t, std::uint32_t>>&
                           keyed) {
    std::sort(keyed.begin(), keyed.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
  };
  std::vector<std::pair<std::uint64_t, std::uint32_t>> true_ranked;
  for (std::uint32_t key = 0; key < kKeys; ++key) {
    if (truth[key] > 0) true_ranked.emplace_back(truth[key], key);
  }
  rank(true_ranked);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sketch_ranked;
  for (const SpaceSavingSketch::Counter& counter : sketch.counters()) {
    sketch_ranked.emplace_back(counter.count, counter.key);
  }
  rank(sketch_ranked);

  ASSERT_GE(sketch_ranked.size(), kTopK);
  for (std::size_t i = 0; i < kTopK; ++i) {
    EXPECT_EQ(sketch_ranked[i].second, true_ranked[i].second) << "rank " << i;
    // The head of a skewed stream is monitored from early on and never
    // evicted, so its counts are not just bounded but exact.
    EXPECT_EQ(sketch_ranked[i].first, true_ranked[i].first) << "rank " << i;
  }
}

TEST(SpaceSaving, WeightedOfferEqualsRepeatedUnitOffers) {
  // offer(key, w) must be interchangeable with w consecutive offer(key)
  // calls — the traffic sketch relies on this to fold exact per-name
  // deltas at flush boundaries without changing what the sketch says.
  SpaceSavingSketch unit(4);
  SpaceSavingSketch weighted(4);
  Rng rng(11);
  for (int round = 0; round < 2'000; ++round) {
    const auto key = static_cast<std::uint32_t>(rng.below(rng.below(19) + 1));
    const std::uint64_t weight = rng.below(5) + 1;
    for (std::uint64_t i = 0; i < weight; ++i) unit.offer(key);
    weighted.offer(key, weight);
  }
  EXPECT_EQ(unit.offered(), weighted.offered());
  ASSERT_EQ(unit.size(), weighted.size());
  const auto sorted = [](const SpaceSavingSketch& sketch) {
    auto counters = sketch.counters();
    std::sort(counters.begin(), counters.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return counters;
  };
  const auto lhs = sorted(unit);
  const auto rhs = sorted(weighted);
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].key, rhs[i].key);
    EXPECT_EQ(lhs[i].count, rhs[i].count);
    EXPECT_EQ(lhs[i].error, rhs[i].error);
  }
  weighted.offer(7, 0);  // zero weight is a no-op, not an insertion
  EXPECT_EQ(weighted.offered(), unit.offered());
}

TEST(SpaceSaving, ClearResets) {
  SpaceSavingSketch sketch(2);
  sketch.offer(1);
  sketch.offer(2);
  sketch.offer(3);
  sketch.clear();
  EXPECT_EQ(sketch.size(), 0u);
  EXPECT_EQ(sketch.offered(), 0u);
  sketch.offer(9);
  ASSERT_EQ(sketch.size(), 1u);
  EXPECT_EQ(sketch.counters()[0].error, 0u);  // no stale takeover state
}

// --- HyperLogLog ------------------------------------------------------------

TEST(Hll, ErrorWithinTheoreticalBoundOnSeededStreams) {
  // 3 sigma of the standard error 1.04/sqrt(4096) ~= 4.9%; seeded streams
  // make the assertion deterministic.
  for (const std::size_t n :
       {std::size_t{100}, std::size_t{1'000}, std::size_t{20'000},
        std::size_t{200'000}}) {
    HllSketch sketch;
    for (std::size_t i = 0; i < n; ++i) {
      sketch.add_hash(mix64(0x9e3779b97f4a7c15ULL + i));
    }
    const double estimate = sketch.estimate();
    const double relative_error =
        std::abs(estimate - static_cast<double>(n)) / static_cast<double>(n);
    EXPECT_LE(relative_error, 3.0 * HllSketch::kStandardError) << "n=" << n;
  }
}

TEST(Hll, DuplicatesDoNotInflate) {
  HllSketch sketch;
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < 1000; ++i) sketch.add_hash(mix64(i));
  }
  const double estimate = sketch.estimate();
  EXPECT_LE(std::abs(estimate - 1000.0) / 1000.0,
            3.0 * HllSketch::kStandardError);
}

TEST(Hll, MergeEqualsUnionStream) {
  // Register-wise max is a CRDT: merging overlapping shards must equal
  // one sketch over the union, bit for bit (same estimate).
  HllSketch whole;
  HllSketch parts[4];
  for (std::uint64_t i = 0; i < 40'000; ++i) {
    const std::uint64_t hash = mix64(i * 2654435761ULL);
    whole.add_hash(hash);
    parts[i % 4].add_hash(hash);
    parts[(i + 1) % 4].add_hash(hash);  // overlap between shards
  }
  HllSketch merged;
  EXPECT_TRUE(merged.empty());
  for (const HllSketch& part : parts) merged.merge_from(part);
  EXPECT_FALSE(merged.empty());
  EXPECT_EQ(merged.estimate(), whole.estimate());
}

TEST(Hll, ClearEmpties) {
  HllSketch sketch;
  sketch.add_hash(mix64(42));
  EXPECT_FALSE(sketch.empty());
  sketch.clear();
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.estimate(), 0.0);
}

// --- TrafficSketch / plane --------------------------------------------------

/// One below tap event of a hand-built batch.
TapEvent below(SimTime ts, std::uint64_t client, NameId qname,
               RCode rcode = RCode::NoError) {
  return TapEvent{ts, client, qname, RRType::A, TapDirection::kBelow, rcode};
}

/// Delivers `events`, whose ids resolve through `names`, to `sketch` as
/// batches of `batch_size` events, as a tap producer would.
void deliver(TrafficSketch& sketch, const NameTable& names,
             std::span<const TapEvent> events, std::size_t batch_size) {
  for (std::size_t at = 0; at < events.size(); at += batch_size) {
    const std::size_t count = std::min(batch_size, events.size() - at);
    sketch.on_tap_batch(TapBatch(events.subspan(at, count), {}, names));
  }
}

/// Feeds one answered client query into `sketch` as a one-event batch of
/// a table that dies with the call, as a short-lived producer would.
void feed(TrafficSketch& sketch, SimTime ts, std::uint64_t client,
          const std::string& qname, RCode rcode = RCode::NoError) {
  NameTable names;
  const TapEvent event = below(ts, client, names.intern(qname), rcode);
  deliver(sketch, names, {&event, 1}, 1);
}

TEST(TrafficPlane, CountsSharesAndHeavyHitters) {
  TrafficSketchConfig config;
  config.top_k = 4;
  TrafficSketchPlane plane(config);
  plane.set_disposable_zones({"noise.tracker.example"});
  plane.ensure_shards(1);
  TrafficSketch& shard = plane.shard(0);
  for (int i = 0; i < 6; ++i) {
    feed(shard, 10 + i, 1, "q" + std::to_string(i) + ".noise.tracker.example");
  }
  feed(shard, 20, 2, "www.stable.example");
  feed(shard, 21, 2, "www.stable.example");
  feed(shard, 22, 3, "missing.stable.example", RCode::NXDomain);

  const TrafficSnapshot snap = plane.snapshot();
  EXPECT_EQ(snap.queries, 9u);
  EXPECT_EQ(snap.disposable, 6u);  // matched at the zone, 2 labels deep
  EXPECT_EQ(snap.nxdomain, 1u);
  EXPECT_EQ(snap.new_names, 8u);  // www.stable.example repeated once
  EXPECT_DOUBLE_EQ(snap.disposable_share(), 6.0 / 9.0);
  EXPECT_DOUBLE_EQ(snap.nxdomain_share(), 1.0 / 9.0);
  EXPECT_EQ(snap.classifier_zones, 1u);
  ASSERT_FALSE(snap.top_slds.empty());
  // SLD table folds every qX.noise.tracker.example into one registrable
  // domain ("example" is not a public suffix -> SLD = tracker.example...
  // actually nld_view(suffix+1)); the heavy hitter must dominate.
  EXPECT_GE(snap.top_slds[0].count, 6u);
  ASSERT_LE(snap.top_qnames.size(), 4u);  // top_k caps the export
  EXPECT_EQ(snap.top_qnames[0].name, "www.stable.example");
  EXPECT_EQ(snap.top_qnames[0].count, 2u);
}

TEST(TrafficPlane, ClassifierMatchesAnySuffixLevelAndClears) {
  TrafficSketchPlane plane;
  plane.set_disposable_zones({"deep.zone.example.com"});
  plane.ensure_shards(1);
  TrafficSketch& shard = plane.shard(0);
  feed(shard, 1, 1, "a.b.deep.zone.example.com");  // below the zone: match
  feed(shard, 2, 1, "deep.zone.example.com");      // the zone itself: match
  feed(shard, 3, 1, "zone.example.com");           // above the zone: miss
  feed(shard, 4, 1, "other.example.com");          // unrelated: miss
  EXPECT_EQ(plane.snapshot().disposable, 2u);

  plane.set_disposable_zones({});
  EXPECT_EQ(plane.classifier_zone_count(), 0u);
  feed(shard, 5, 1, "a.b.deep.zone.example.com");  // classifier now empty
  EXPECT_EQ(plane.snapshot().disposable, 2u);
}

TEST(TrafficPlane, WindowRingEvictsOldIntervals) {
  TrafficSketchConfig config;
  config.window_slots = 4;
  config.interval_seconds = 10;
  TrafficSketchPlane plane(config);
  plane.ensure_shards(1);
  TrafficSketch& shard = plane.shard(0);
  // 8 intervals of one query each; the ring keeps only the newest 4.
  for (SimTime interval = 0; interval < 8; ++interval) {
    feed(shard, interval * 10 + 5, 1, "w.example");
  }
  const TrafficSnapshot snap = plane.snapshot();
  ASSERT_EQ(snap.window.size(), 4u);
  EXPECT_EQ(snap.window.front().start_ts, 40);  // oldest surviving interval
  EXPECT_EQ(snap.window.back().start_ts, 70);
  for (const obs::TrafficInterval& interval : snap.window) {
    EXPECT_EQ(interval.queries, 1u);
  }
  EXPECT_EQ(snap.queries, 8u);  // totals keep the full-day view
}

TEST(TrafficPlane, ShardMergeIsDeterministicAndSumsByText) {
  // Two planes, three shards each, same per-shard streams: the merged
  // export must be byte-identical, and a name split across shards must
  // merge by summed count (never by table-scoped NameId).
  const auto build = [] {
    TrafficSketchConfig config;
    config.top_k = 8;
    auto plane = std::make_unique<TrafficSketchPlane>(config);
    plane->set_disposable_zones({"hot.example"});
    plane->ensure_shards(3);
    for (std::size_t s = 0; s < 3; ++s) {
      TrafficSketch& shard = plane->shard(s);
      // Shared heavy hitter, interned at a different NameId per shard
      // (distinct warm-up names force different intern orders).
      feed(shard, 1, s, "warm" + std::to_string(s) + ".example");
      for (int i = 0; i < 3; ++i) {
        feed(shard, 2 + i, 100 + s, "x.hot.example");
      }
    }
    return plane;
  };
  const auto a = build();
  const auto b = build();
  const std::string json = a->to_json();
  EXPECT_EQ(json, b->to_json());
  EXPECT_EQ(json, a->to_json());  // export itself is stable

  const TrafficSnapshot snap = a->snapshot();
  EXPECT_EQ(snap.queries, 12u);
  EXPECT_EQ(snap.disposable, 9u);
  ASSERT_FALSE(snap.top_qnames.empty());
  EXPECT_EQ(snap.top_qnames[0].name, "x.hot.example");
  EXPECT_EQ(snap.top_qnames[0].count, 9u);  // 3 shards x 3, summed by text
  // Ties rank by name ascending for a total order.
  ASSERT_GE(snap.top_qnames.size(), 4u);
  EXPECT_EQ(snap.top_qnames[1].name, "warm0.example");
  EXPECT_EQ(snap.top_qnames[2].name, "warm1.example");
  EXPECT_EQ(snap.top_qnames[3].name, "warm2.example");
}

TEST(TrafficPlane, RebindResolvesIdsThroughTheNewTables) {
  // NameIds are table-scoped: a batch of a new table (a fresh cluster,
  // next simulated day) must resolve the same raw id through that table,
  // never through a stale cached translation — also when the new table
  // is built at the address of a destroyed one.
  TrafficSketchPlane plane;
  plane.ensure_shards(1);
  TrafficSketch& shard = plane.shard(0);
  std::optional<NameTable> first_table;
  first_table.emplace();
  const NameId first = first_table->intern("first-day.example");
  const TapEvent first_event = below(1, 1, first);
  deliver(shard, *first_table, {&first_event, 1}, 1);

  NameTable second_table;
  const NameId second = second_table.intern("second-day.example");
  ASSERT_EQ(first, second);  // same raw id, different meaning
  const TapEvent second_event = below(2, 2, second);
  deliver(shard, second_table, {&second_event, 1}, 1);

  // Same storage, so the same address as the destroyed first table.
  const NameTable* const first_address = &*first_table;
  first_table.reset();
  first_table.emplace();
  ASSERT_EQ(&*first_table, first_address);
  const NameId third = first_table->intern("third-day.example");
  ASSERT_EQ(first, third);
  const TapEvent third_event = below(3, 3, third);
  deliver(shard, *first_table, {&third_event, 1}, 1);

  const TrafficSnapshot snap = plane.snapshot();
  EXPECT_EQ(snap.queries, 3u);
  EXPECT_EQ(snap.new_names, 3u);
  std::vector<std::string> names;
  for (const TrafficHeavyHitter& hitter : snap.top_qnames) {
    names.push_back(hitter.name);
    EXPECT_EQ(hitter.count, 1u);
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"first-day.example", "second-day.example",
                                      "third-day.example"}));
}

TEST(TrafficPlane, ScrapesNeverPerturbLaterExports) {
  // collect_into overlays pending deltas onto a *copy* of the
  // Space-Saving state, so writer-side state stays a pure function of
  // the event stream: a run scraped mid-stream must end with the same
  // export as an unscraped run, and consecutive quiesced scrapes must be
  // byte-identical.
  const auto run = [](bool scrape_midway) {
    TrafficSketchConfig config;
    config.counters = 8;  // small: constant Space-Saving churn
    auto plane = std::make_unique<TrafficSketchPlane>(config);
    plane->ensure_shards(1);
    TrafficSketch& shard = plane->shard(0);
    NameTable source;
    std::vector<NameId> ids;
    for (int i = 0; i < 64; ++i) {
      ids.push_back(source.intern("n" + std::to_string(i) + ".example"));
    }
    Rng rng(33);
    std::vector<TapEvent> events;
    for (int i = 0; i < 1'000; ++i) {
      events.push_back(below(static_cast<SimTime>(i), 1,
                             ids[rng.below(rng.below(63) + 1)]));
    }
    // Batches of 250 events, a scrape between any two.
    for (std::size_t at = 0; at < events.size(); at += 250) {
      deliver(shard, source, std::span(events).subspan(at, 250), 250);
      if (scrape_midway) plane->to_json();
    }
    return plane->to_json();
  };
  const std::string undisturbed = run(false);
  EXPECT_EQ(undisturbed, run(true));
}

TEST(TrafficPlane, BatchingNeverChangesTheExport) {
  // Folds happen the moment the touched set reaches its threshold, so the
  // export depends on the sequence of below events alone, never on where
  // the producer's batches end.  The stream makes the fold point show in
  // the export: top_k equals the counters, so every counter is exported,
  // and right after each window's 4,096th distinct name (the sketch's fold
  // threshold) one name is hammered.  A fold that waited for the end of
  // the batch would fold some of those hits with the window, in id order,
  // and move the exported counts.
  constexpr std::size_t kFoldThreshold = 4'096;
  NameTable names;
  std::vector<NameId> pool;
  for (int i = 0; i < 20'000; ++i) {
    pool.push_back(names.intern("h" + std::to_string(i) + ".zipf.example"));
  }
  const NameId hot = names.intern("hot.zipf.example");
  Rng rng(41);
  ZipfSampler zipf(pool.size(), 1.0);
  std::vector<TapEvent> events;
  std::set<NameId> window;  // names touched since the sketch's last fold
  std::size_t folds = 0;
  const auto add = [&](NameId id) {
    const int i = static_cast<int>(events.size());
    events.push_back(below(static_cast<SimTime>(i / 16), rng.below(300) + 1,
                           id, i % 29 == 0 ? RCode::NXDomain : RCode::NoError));
    window.insert(id);
  };
  while (events.size() < 30'000) {
    add(pool[zipf.sample(rng)]);
    if (window.size() == kFoldThreshold) {
      window.clear();
      ++folds;
      for (int i = 0; i < 150; ++i) add(hot);
    }
  }
  ASSERT_GE(folds, 2u);

  const auto run = [&](std::size_t batch_size) {
    TrafficSketchConfig config;
    config.top_k = 8;
    config.counters = 8;
    auto plane = std::make_unique<TrafficSketchPlane>(config);
    plane->ensure_shards(1);
    deliver(plane->shard(0), names, events, batch_size);
    return plane;
  };
  const auto per_event = run(1);
  const std::string json = per_event->to_json();
  // Batch sizes that do not divide the fold points.
  for (const std::size_t batch_size : {7u, 300u, 1'000u}) {
    SCOPED_TRACE(batch_size);
    EXPECT_EQ(json, run(batch_size)->to_json());
  }
  // Space-Saving evicted: some exported hitter inherited an error.
  const TrafficSnapshot snap = per_event->snapshot();
  ASSERT_EQ(snap.top_qnames.size(), 8u);
  EXPECT_TRUE(std::any_of(
      snap.top_qnames.begin(), snap.top_qnames.end(),
      [](const TrafficHeavyHitter& hitter) { return hitter.error > 0; }));
}

TEST(TrafficPlane, CountsBelowEventsOfNamedQueriesOnly) {
  // Above events are the cluster's own upstream answers and the root is
  // not a name the plane ranks: neither is counted.  An NXDOMAIN below
  // event is a client query like any other.
  TrafficSketchPlane plane;
  plane.ensure_shards(1);
  NameTable names;
  const NameId hot = names.intern("a.hot.example");
  const NameId root = names.intern("");
  const NameId missing = names.intern("missing.hot.example");
  TapEvent above = below(1, 0, hot);
  above.direction = TapDirection::kAbove;
  const std::vector<TapEvent> events = {
      above, below(1, 7, hot), below(2, 7, root),
      below(3, 8, missing, RCode::NXDomain), below(4, 8, root)};
  deliver(plane.shard(0), names, events, events.size());

  const TrafficSnapshot snap = plane.snapshot();
  EXPECT_EQ(snap.queries, 2u);
  EXPECT_EQ(snap.nxdomain, 1u);
  EXPECT_EQ(snap.new_names, 2u);
  std::vector<std::string> ranked;
  for (const TrafficHeavyHitter& hitter : snap.top_qnames) {
    ranked.push_back(hitter.name);
    EXPECT_EQ(hitter.count, 1u);
  }
  EXPECT_EQ(ranked, (std::vector<std::string>{"a.hot.example",
                                              "missing.hot.example"}));
  ASSERT_EQ(snap.window.size(), 1u);
  EXPECT_EQ(snap.window[0].queries, 2u);
}

TEST(TrafficPlane, EmptyPlaneExportsZeroSharesNotNull) {
  TrafficSketchPlane plane;
  const TrafficSnapshot snap = plane.snapshot();
  EXPECT_EQ(snap.queries, 0u);
  EXPECT_DOUBLE_EQ(snap.disposable_share(), 0.0);
  const std::string json = plane.to_json();
  EXPECT_NE(json.find("\"schema\": \"dnsnoise-traffic-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"disposable_share\": 0"), std::string::npos);
  EXPECT_EQ(json.find("null"), std::string::npos);
  EXPECT_NE(json.find("\"top_slds\": []"), std::string::npos);
  EXPECT_NE(json.find("\"window\": []"), std::string::npos);
}

TEST(TrafficPlane, PublishGaugesLandsInRegistry) {
  obs::MetricsRegistry registry;
  TrafficSketchPlane plane;
  plane.set_disposable_zones({"hot.example"});
  plane.ensure_shards(1);
  feed(plane.shard(0), 1, 1, "a.hot.example");
  feed(plane.shard(0), 2, 2, "b.cold.example", RCode::NXDomain);
  plane.publish_gauges(registry);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricSample* queries = snap.find("traffic.queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->value, 2.0);
  const obs::MetricSample* share = snap.find("traffic.disposable_share");
  ASSERT_NE(share, nullptr);
  EXPECT_DOUBLE_EQ(share->value, 0.5);
  EXPECT_NE(snap.find("traffic.nxdomain_share"), nullptr);
  EXPECT_NE(snap.find("traffic.distinct_qnames"), nullptr);
  EXPECT_NE(snap.find("traffic.distinct_clients"), nullptr);
  EXPECT_NE(snap.find("traffic.classifier_zones"), nullptr);
}

}  // namespace
}  // namespace dnsnoise
