// A hand-driven engine day for the reference tests: the same shards,
// plans and clusters as MiningSession, with a DayCapture, a DayCapture fed
// presentation responses through a CaptureDecoder and the reference
// capture model on every shard's tap.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/drive.h"
#include "engine/parallel_miner.h"
#include "engine/shard_merge.h"
#include "netio/capture.h"
#include "reference_miner.h"

namespace dnsnoise::reference {

/// A zone whose answers leave the fast path: CNAME chains whose later
/// owners are not the qname, TXT, A text that is not canonical or not an
/// address at all, non-canonical AAAA text, and a 6-record set (past the
/// cache's inline records).  The first label picks the shape.
inline void register_odd_zone(SyntheticAuthority& authority) {
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
  std::optional<Scenario> scenario;
  std::int64_t day_index = 0;
  DayCapture capture;           // the shards merged, as the engine does
  DayCapture presentation;      // fed through a decoder, shard-merged
  ReferenceCapture reference;   // the shard models merged
};

/// Checks one shard's captures against its model before the merge.
using ShardCheck = std::function<void(
    const DayCapture& shard, const DayCapture& presentation,
    const ReferenceCapture& reference)>;

/// Runs a day as MiningSession does — one Scenario, one plan per day,
/// each shard's cluster warmed on its slice of the warmup plan — with a
/// DayCapture, a decoder-fed DayCapture and the reference model on every
/// shard's tap.
inline void run_day(const DayParams& params, CapturedDay& out,
                    const ShardCheck& check = {}) {
  Scenario& scenario = out.scenario.emplace(params.date, params.scale);
  register_odd_zone(scenario.authority_mut());
  const std::int64_t day = scenario_day_index(params.date);
  out.day_index = day;
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
    // The presentation capture is fed as pcap replay feeds one: each event
    // becomes a response message, which a decoder turns back into a tap
    // event over its own table.
    CaptureDecoder decoder({});
    decoder.add_tap_observer(&presentation);
    FunctionTapObserver feed_presentation([&](const TapBatch& batch) {
      for (const TapEvent& event : batch) {
        std::vector<ResourceRecord> answers;
        to_resource_records(batch.answers(event), batch.names(), answers);
        const DnsMessage query = DnsMessage::make_query(
            0, DomainName(batch.qname(event)), event.qtype);
        decoder.add_response(
            event.ts, event.direction, event.client_id,
            DnsMessage::make_response(query, event.rcode, std::move(answers)));
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
    decoder.remove_tap_observer(&presentation);
    if (check) check(shard, presentation, reference);
    out.capture.merge_from(shard);
    out.presentation.merge_from(presentation);
    out.reference.merge_from(reference);
  }
}

}  // namespace dnsnoise::reference
