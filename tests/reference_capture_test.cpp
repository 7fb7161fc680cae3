// Reference capture: an independent, string-keyed model of what a day's
// capture must hold (tests/reference_miner.h), checked against DayCapture.
//
// DayCapture accumulates tap batches on ids — a remap from the cluster's
// name table, compact records, an id-keyed CHR tracker — and writes text
// and classes a qname for the hourly series only on first sight.  The
// model shares none of that: it is fed the same tap events converted to
// presentation records, classes every event's qname from its text, and
// keeps plain std::map / std::set state.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "reference_day.h"

namespace dnsnoise::reference {
namespace {

void collect_black(const DomainNameTree& tree, NameId node,
                   std::set<std::string>& out) {
  if (tree.black(node)) out.emplace(tree.name(node));
  for (NameId child = tree.first_child(node); child != kInvalidNameId;
       child = tree.next_sibling(child)) {
    collect_black(tree, child, out);
  }
}

std::vector<std::string> in_order(const DayCapture& capture,
                                  std::span<const NameId> ids) {
  std::vector<std::string> out;
  for (const NameId id : ids) out.emplace_back(capture.names().name(id));
  return out;
}

void expect_series(const HourlySeries& got, const ReferenceSeries& want,
                   const char* direction) {
  SCOPED_TRACE(direction);
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.nxdomain, want.nxdomain);
  EXPECT_EQ(got.google, want.google);
  EXPECT_EQ(got.akamai, want.akamai);
}

void expect_matches(const DayCapture& capture, const ReferenceCapture& ref) {
  const auto entries = capture.chr().entries();
  ASSERT_EQ(entries.size(), ref.order.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const RRKey key = to_rr_key(entries[i].first, capture.names());
    const auto& counts = entries[i].second;
    const RrText& want = ref.order[i];
    ASSERT_EQ(std::tie(key.name, key.type, key.rdata),
              std::tie(std::get<0>(want), std::get<1>(want),
                       std::get<2>(want)))
        << "CHR entry " << i;
    const ReferenceCounts& ref_counts = ref.chr.at(want);
    EXPECT_EQ(counts.below, ref_counts.below) << key.name;
    EXPECT_EQ(counts.above, ref_counts.above) << key.name;
    EXPECT_EQ(counts.ttl, ref_counts.ttl) << key.name;
    ASSERT_NE(capture.chr().find(key), nullptr) << key.name;
  }
  EXPECT_EQ(in_order(capture, capture.queried_names()), ref.queried.order);
  EXPECT_EQ(in_order(capture, capture.resolved_names()), ref.resolved.order);
  std::set<std::string> black;
  collect_black(capture.tree(), capture.tree().root(), black);
  EXPECT_EQ(black, ref.black);
  expect_series(capture.below_series(), ref.below_series, "below");
  expect_series(capture.above_series(), ref.above_series, "above");
}

/// Each shard alone, before the shard-order merges.
void expect_shard_matches(const DayCapture& shard,
                          const DayCapture& presentation,
                          const ReferenceCapture& reference) {
  expect_matches(shard, reference);
  expect_matches(presentation, reference);
}

ScenarioScale golden_scale() {
  ScenarioScale scale;
  scale.queries_per_day = 30'000;
  scale.client_count = 1'500;
  return scale;
}

/// Everything expect_matches compares, as one string.
std::string fingerprint(const DayCapture& capture) {
  std::string out;
  for (const auto& [rr, counts] : capture.chr().entries()) {
    const RRKey key = to_rr_key(rr, capture.names());
    out += key.name + ' ' + std::string(to_string(key.type)) + ' ' +
           key.rdata + ' ' + std::to_string(counts.below) + '/' +
           std::to_string(counts.above) + '/' + std::to_string(counts.ttl) +
           '\n';
  }
  for (const std::string& name : in_order(capture, capture.queried_names())) {
    out += "q " + name + '\n';
  }
  for (const std::string& name :
       in_order(capture, capture.resolved_names())) {
    out += "r " + name + '\n';
  }
  std::set<std::string> black;
  collect_black(capture.tree(), capture.tree().root(), black);
  for (const std::string& name : black) out += "b " + name + '\n';
  for (const HourlySeries* series :
       {&capture.below_series(), &capture.above_series()}) {
    for (std::size_t h = 0; h < 24; ++h) {
      out += "h " + std::to_string(series->total[h]) + ' ' +
             std::to_string(series->nxdomain[h]) + ' ' +
             std::to_string(series->google[h]) + ' ' +
             std::to_string(series->akamai[h]) + '\n';
    }
  }
  return out;
}

std::uint64_t sum(const std::array<std::uint64_t, 24>& slots) {
  return std::accumulate(slots.begin(), slots.end(), std::uint64_t{0});
}

TEST(ReferenceCaptureTest, GoldenDayAtOneAndFourShards) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(shards);
    DayParams params;
    params.scale = golden_scale();
    params.cluster.server_count = shards;
    params.cluster.cache.capacity = 1 << 14;
    CapturedDay day;
    run_day(params, day, expect_shard_matches);
    expect_matches(day.capture, day.reference);
    expect_matches(day.presentation, day.reference);
    // The day has traffic in every series the comparison covers.
    for (const ReferenceSeries* series :
         {&day.reference.below_series, &day.reference.above_series}) {
      EXPECT_GT(sum(series->nxdomain), 0u);
      EXPECT_GT(sum(series->google), 0u);
      EXPECT_GT(sum(series->akamai), 0u);
    }

    // The hand-driven day is the engine's day: same capture, byte for byte.
    MiningSession session(params.scale);
    session.cluster(params.cluster).threads(2);
    DayCapture engine;
    ASSERT_TRUE(session.simulate(params.date, engine).ok());
    EXPECT_EQ(fingerprint(engine), fingerprint(day.capture));
  }
}

TEST(ReferenceCaptureTest, SeededSmallDaysWithOddRecords) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    DayParams params;
    params.date = kAllScenarioDates[seed % kAllScenarioDates.size()];
    params.scale.queries_per_day = 4'000 + 500 * seed;
    params.scale.client_count = 300 + 40 * seed;
    params.scale.population_scale = 0.2 + 0.05 * static_cast<double>(seed);
    params.scale.seed = 2011 + seed;
    params.scale.traffic_stream = seed;
    params.cluster.server_count = 1 + seed % 4;
    // Small caches on some days, so entries (spilled ones too) are evicted.
    params.cluster.cache.capacity = seed % 2 == 0 ? 64 : 1 << 12;
    params.warmup = seed % 3 != 0;
    params.odd_rate = 0.05;
    CapturedDay day;
    run_day(params, day, expect_shard_matches);
    expect_matches(day.capture, day.reference);
    expect_matches(day.presentation, day.reference);
    // Every odd rdata text survives exactly, as its own RR.
    std::set<std::string> odd_rdata;
    for (const auto& [rr, counts] : day.capture.chr().entries()) {
      const RRKey key = to_rr_key(rr, day.capture.names());
      if (name_within(key.name, "odd.test")) odd_rdata.insert(key.rdata);
    }
    for (const char* text : {"010.0.0.1", "10.0.0.1", "not-an-address",
                             "2001:DB8::1", "2001:db8::1", "end.odd.test",
                             "198.51.100.6", "192.0.2.99"}) {
      EXPECT_TRUE(odd_rdata.contains(text)) << text;
    }
  }
}

}  // namespace
}  // namespace dnsnoise::reference
