// Reference capture: an independent, string-keyed model of what a day's
// capture must hold, checked against DayCapture.
//
// DayCapture accumulates tap batches on ids — a remap from the cluster's
// name table, compact records, an id-keyed CHR tracker — and writes text
// only on first sight.  The model below shares none of that: it is fed
// the same tap events converted to presentation records (the edge
// conversion) and keeps plain std::map / std::set state, the way the
// paper defines it:
//   - CHR: per (name, type, rdata text), below and above counts and the
//     TTL of the first observation, in first-observation order;
//   - the queried names (every below question) and the resolved names
//     (owners of RRs seen below), each in first-sight order;
//   - the domain tree's black nodes: every owner of an RR seen below.
// Shard models merge like the captures do: in shard order, appending
// what is new, summing counts, keeping the first TTL.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "engine/drive.h"
#include "engine/parallel_miner.h"
#include "engine/shard_merge.h"

namespace dnsnoise {
namespace {

using RrText = std::tuple<std::string, RRType, std::string>;

struct ReferenceCounts {
  std::uint64_t below = 0;
  std::uint64_t above = 0;
  std::uint32_t ttl = 0;
};

/// Names in first-sight order plus their set.
struct OrderedNames {
  std::vector<std::string> order;
  std::set<std::string> seen;

  void add(const std::string& name) {
    if (seen.insert(name).second) order.push_back(name);
  }
};

class ReferenceCapture final : public TapObserver {
 public:
  void on_tap_batch(const TapBatch& batch) override {
    std::vector<ResourceRecord> answers;
    for (const TapEvent& event : batch) {
      to_resource_records(batch.answers(event), batch.names(), answers);
      add(event.direction, std::string(batch.qname(event)), event.rcode,
          answers);
    }
  }

  void add(TapDirection direction, const std::string& qname, RCode rcode,
           const std::vector<ResourceRecord>& answers) {
    const bool below = direction == TapDirection::kBelow;
    if (below) queried.add(qname);
    if (rcode != RCode::NoError) return;
    for (const ResourceRecord& rr : answers) {
      ReferenceCounts& counts = entry(
          RrText{rr.name.text(), rr.type, rr.rdata}, rr.ttl);
      if (!below) {
        ++counts.above;
        continue;
      }
      if (counts.below++ == 0) resolved.add(rr.name.text());
      black.insert(rr.name.text());
    }
  }

  void merge_from(const ReferenceCapture& other) {
    for (const RrText& key : other.order) {
      const ReferenceCounts& src = other.chr.at(key);
      ReferenceCounts& dst = entry(key, src.ttl);
      dst.below += src.below;
      dst.above += src.above;
    }
    for (const std::string& name : other.queried.order) queried.add(name);
    for (const std::string& name : other.resolved.order) resolved.add(name);
    black.insert(other.black.begin(), other.black.end());
  }

  std::map<RrText, ReferenceCounts> chr;
  std::vector<RrText> order;
  OrderedNames queried;
  OrderedNames resolved;
  std::set<std::string> black;

 private:
  /// The entry for `key`, created with `ttl` on first observation.
  ReferenceCounts& entry(const RrText& key, std::uint32_t ttl) {
    const auto [it, inserted] = chr.try_emplace(key);
    if (inserted) {
      it->second.ttl = ttl;
      order.push_back(key);
    }
    return it->second;
  }
};

void collect_black(const DomainNameTree::Node& node,
                   std::set<std::string>& out) {
  if (node.black) out.insert(DomainNameTree::full_name(node));
  for (const DomainNameTree::Node* child : node.children()) {
    collect_black(*child, out);
  }
}

std::vector<std::string> in_id_order(const NameTable& names) {
  std::vector<std::string> out;
  for (NameId id = 0; id < names.size(); ++id) {
    out.emplace_back(names.name(id));
  }
  return out;
}

void expect_matches(const DayCapture& capture, const ReferenceCapture& ref) {
  const auto entries = capture.chr().entries();
  ASSERT_EQ(entries.size(), ref.order.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, counts] = entries[i];
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
  EXPECT_EQ(in_id_order(capture.queried_names()), ref.queried.order);
  EXPECT_EQ(in_id_order(capture.resolved_names()), ref.resolved.order);
  std::set<std::string> black;
  collect_black(capture.tree().root(), black);
  EXPECT_EQ(black, ref.black);
}

/// A zone whose answers leave the fast path: CNAME chains whose later
/// owners are not the qname, TXT, A text that is not canonical or not an
/// address at all, non-canonical AAAA text, and a 6-record set (past the
/// cache's inline records).  The first label picks the shape.
void register_odd_zone(SyntheticAuthority& authority) {
  authority.register_zone(
      DomainName("odd.test"),
      [](const Question& q, SimTime, AuthorityAnswer& out) {
        const std::string_view label = q.name.label(0);
        const std::string key(label.substr(1));
        out.rcode = RCode::NoError;
        switch (label.front()) {
          case 'c':
            out.add(RRType::CNAME, 300, "mid" + key + ".odd.test");
            out.add("mid" + key + ".odd.test", RRType::CNAME, 120,
                    "end.odd.test");
            out.add("end.odd.test", RRType::A, 60, "192.0.2.1");
            break;
          case 't':
            out.add(RRType::TXT, 3600, "v=spf1 include:" + key + " -all");
            break;
          case 'n':
            out.add(RRType::A, 300, "010.0.0.1");
            out.add(RRType::A, 300, "10.0.0.1");
            break;
          case 'u':
            out.add(RRType::A, 30, "not-an-address");
            break;
          case 'v':
            out.add(RRType::AAAA, 300, "2001:DB8::1");
            out.add(RRType::AAAA, 300, "2001:db8::1");
            break;
          case 's':
            for (int i = 1; i <= 6; ++i) {
              out.add(RRType::A, 90, "198.51.100." + std::to_string(i));
            }
            break;
          case 'z':
            out.add(RRType::A, 0, "192.0.2.99");  // uncacheable
            break;
          default:
            out.rcode = RCode::NXDomain;
            break;
        }
      });
}

struct DayParams {
  ScenarioDate date = ScenarioDate::kDec30;
  ScenarioScale scale;
  ClusterConfig cluster;
  bool warmup = true;
  /// Chance that a generated query is followed by one into odd.test.
  double odd_rate = 0.0;
};

struct CapturedDay {
  DayCapture capture;           // the shards merged, as the engine does
  DayCapture presentation;      // fed presentation records, shard-merged
  ReferenceCapture reference;   // the shard models merged
};

/// Runs a day as MiningSession does — one Scenario, one plan per day,
/// each shard's cluster warmed on its slice of the warmup plan — with a
/// DayCapture, a presentation-fed DayCapture and the reference model on
/// every shard's tap.
void run_day(const DayParams& params, CapturedDay& out) {
  Scenario scenario(params.date, params.scale);
  register_odd_zone(scenario.authority_mut());
  const std::int64_t day = scenario_day_index(params.date);
  const std::size_t shards = params.cluster.server_count;
  std::optional<TrafficGenerator> warm;
  std::optional<DayPlan> warm_plan;
  if (params.warmup) {
    warm.emplace(scenario.traffic_for(
        *warmup_scale(params.scale, PipelineOptions{}.warmup_volume_fraction)));
    warm_plan.emplace(warm->plan_day(day - 1, shards));
  }
  const DayPlan plan = scenario.traffic().plan_day(day, shards);
  out.capture.start_day(day);
  out.presentation.start_day(day);
  for (std::size_t index = 0; index < shards; ++index) {
    RdnsCluster cluster(params.cluster.for_shard(index), scenario.authority());
    Question question;
    if (warm_plan) {
      drive_day(*warm, *warm_plan, index, cluster, question, nullptr);
    }
    DayCapture shard;
    DayCapture presentation;
    ReferenceCapture reference;
    FunctionTapObserver feed_presentation([&](const TapBatch& batch) {
      std::vector<ResourceRecord> answers;
      for (const TapEvent& event : batch) {
        to_resource_records(batch.answers(event), batch.names(), answers);
        const Question q{DomainName(batch.qname(event)), event.qtype};
        if (event.direction == TapDirection::kBelow) {
          presentation.on_below(event.ts, event.client_id, q, event.rcode,
                                answers);
        } else {
          presentation.on_above(event.ts, q, event.rcode, answers);
        }
      }
    });
    shard.start_day(day);
    presentation.start_day(day);
    shard.attach(cluster);
    cluster.add_tap_observer(&reference);
    cluster.add_tap_observer(&feed_presentation);
    Rng odd(mix64(params.scale.seed ^ index));
    Question odd_question;
    scenario.traffic().run_planned_shard(
        plan, index,
        [&](SimTime ts, std::uint64_t client, const QuerySpec& query) {
          ASSERT_TRUE(question.name.assign(query.qname));
          question.type = query.qtype;
          cluster.query_view(client, question, ts);
          if (params.odd_rate == 0.0 || !odd.chance(params.odd_rate)) return;
          static constexpr char kShapes[] = "ctnuvsxz";
          const std::string name =
              std::string(1, kShapes[odd.below(sizeof(kShapes) - 1)]) +
              std::to_string(odd.below(40)) + ".odd.test";
          ASSERT_TRUE(odd_question.name.assign(name));
          odd_question.type = odd.chance(0.2) ? RRType::AAAA : RRType::A;
          cluster.query_view(client, odd_question, ts);
        });
    cluster.flush_taps();
    cluster.remove_tap_observer(&feed_presentation);
    cluster.remove_tap_observer(&reference);
    shard.detach(cluster);
    // Each shard alone, then the shard-order merges.
    expect_matches(shard, reference);
    expect_matches(presentation, reference);
    out.capture.merge_from(shard);
    out.presentation.merge_from(presentation);
    out.reference.merge_from(reference);
  }
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
  for (const auto& [key, counts] : capture.chr().entries()) {
    out += key.name + ' ' + std::string(to_string(key.type)) + ' ' +
           key.rdata + ' ' + std::to_string(counts.below) + '/' +
           std::to_string(counts.above) + '/' + std::to_string(counts.ttl) +
           '\n';
  }
  for (const std::string& name : in_id_order(capture.queried_names())) {
    out += "q " + name + '\n';
  }
  for (const std::string& name : in_id_order(capture.resolved_names())) {
    out += "r " + name + '\n';
  }
  std::set<std::string> black;
  collect_black(capture.tree().root(), black);
  for (const std::string& name : black) out += "b " + name + '\n';
  return out;
}

TEST(ReferenceCaptureTest, GoldenDayAtOneAndFourShards) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(shards);
    DayParams params;
    params.scale = golden_scale();
    params.cluster.server_count = shards;
    params.cluster.cache.capacity = 1 << 14;
    CapturedDay day;
    run_day(params, day);
    expect_matches(day.capture, day.reference);
    expect_matches(day.presentation, day.reference);

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
    run_day(params, day);
    expect_matches(day.capture, day.reference);
    expect_matches(day.presentation, day.reference);
    // Every odd rdata text survives exactly, as its own RR.
    std::set<std::string> odd_rdata;
    for (const auto& [key, counts] : day.capture.chr().entries()) {
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
}  // namespace dnsnoise
