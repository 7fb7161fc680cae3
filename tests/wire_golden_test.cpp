// The server mode's golden contract (DESIGN.md §14): a mining day whose
// queries arrive entirely over the UDP socket produces a capture and
// findings byte-identical to MiningSession::run on the same day.
//
// The wire path replays the engine's per-shard (ts, client, query) streams,
// merged in timestamp order, through net::DnsWireClient, attaching replay
// metadata so the frontend feeds each server's RdnsCluster::query_view the
// exact same arguments the engine's drive loop passes its shard.
// Everything downstream — the shard captures and their merge, tree, CHR,
// labeling, training, parallel mining, evaluation — is the engine's own
// code, so any divergence localizes to the wire layer.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/parallel_miner.h"
#include "net/udp_client.h"

namespace dnsnoise {
namespace {

ScenarioScale wire_scale() {
  ScenarioScale scale;
  scale.queries_per_day = 12'000;
  scale.client_count = 800;
  scale.population_scale = 0.35;
  scale.seed = 20'261'977;
  return scale;
}

void append_num(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

std::string findings_fingerprint(
    const std::vector<DisposableZoneFinding>& findings) {
  std::string out;
  for (const DisposableZoneFinding& f : findings) {
    out += f.zone;
    out += '|';
    out += std::to_string(f.depth);
    out += '|';
    out += std::to_string(f.group_size);
    out += '|';
    append_num(out, f.confidence);
    for (const double v : f.features.as_array()) {
      out += '|';
      append_num(out, v);
    }
    out += '\n';
  }
  return out;
}

/// Everything a capture holds, one line per fact: each id's name with
/// its tree parent, depth and black flag, the CHR entries in order with
/// their counts and TTLs, the queried and resolved lists, and every
/// hourly slot of both series.
std::vector<std::string> capture_lines(const DayCapture& capture) {
  std::vector<std::string> lines;
  const NameTable& names = capture.names();
  const DomainNameTree& tree = capture.tree();
  for (NameId id = 0; id < names.size(); ++id) {
    std::string line = "name " + std::to_string(id) + " " +
                       std::string(names.name(id));
    if (tree.is_name(id)) {
      line += " parent " + std::to_string(tree.parent(id)) + " depth " +
              std::to_string(tree.depth(id));
      if (tree.contains(id)) line += tree.black(id) ? " black" : " white";
    }
    lines.push_back(std::move(line));
  }
  for (const auto& [rr, counts] : capture.chr().entries()) {
    const RRKey key = to_rr_key(rr, names);
    lines.push_back("rr " + std::to_string(rr.owner) + " " +
                    std::string(to_string(key.type)) + " " + key.rdata +
                    " below " + std::to_string(counts.below) + " above " +
                    std::to_string(counts.above) + " ttl " +
                    std::to_string(counts.ttl));
  }
  for (const NameId id : capture.queried_names()) {
    lines.push_back("queried " + std::to_string(id));
  }
  for (const NameId id : capture.resolved_names()) {
    lines.push_back("resolved " + std::to_string(id));
  }
  for (const auto& [stream, series] :
       {std::pair("below", &capture.below_series()),
        std::pair("above", &capture.above_series())}) {
    for (std::size_t h = 0; h < 24; ++h) {
      lines.push_back(std::string(stream) + " hour " + std::to_string(h) +
                      " " + std::to_string(series->total[h]) + " " +
                      std::to_string(series->nxdomain[h]) + " " +
                      std::to_string(series->google[h]) + " " +
                      std::to_string(series->akamai[h]));
    }
  }
  return lines;
}

struct RecordedQuery {
  SimTime ts;
  std::uint64_t client;
  std::string qname;
  RRType qtype;
};

TEST(WireGolden, SocketDayMatchesInProcessDayByteForByte) {
  const ScenarioDate date = ScenarioDate::kSep13;
  const std::int64_t day_index = scenario_day_index(date);
  ClusterConfig cluster;
  cluster.server_count = 2;

  // Record the engine's shard streams through the one-shard entry point,
  // which walks the same day plan the engine's shards walk, and merge
  // them in timestamp order.  The stable sort keeps each shard's order,
  // and shard order on ties.
  std::vector<RecordedQuery> stream;
  const Scenario recorder(date, wire_scale());
  for (std::size_t shard = 0; shard < cluster.server_count; ++shard) {
    recorder.traffic().run_day_shard(
        day_index, {cluster.server_count, shard},
        [&stream](SimTime ts, std::uint64_t client, const QuerySpec& query) {
          stream.push_back({ts, client, query.qname, query.qtype});
        });
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const RecordedQuery& a, const RecordedQuery& b) {
                     return a.ts < b.ts;
                   });
  ASSERT_GT(stream.size(), 1000u);

  // Path A: the in-process engine day.
  MiningSession session;
  session.scale(wire_scale()).cluster(cluster).threads(2);
  DayCapture capture_a;
  const MiningDayResult result_a = session.run(date, capture_a, day_index);
  ASSERT_TRUE(result_a.ok()) << result_a.error;

  // Path B: same day, every query a real RFC 1035 datagram.
  DnsServerOptions server;
  server.socket_shards = 2;
  session.enable_dns_server(true, 0, server);
  const auto day = session.serve(date);
  ASSERT_NE(day, nullptr);
  ASSERT_TRUE(day->ok()) << day->error();

  net::DnsWireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", day->udp_port(), day->tcp_port()));
  std::uint16_t id = 1;
  std::size_t replayed = 0;
  for (const RecordedQuery& q : stream) {
    const auto qname = DomainName::parse(q.qname);
    if (!qname) continue;  // the drive loop skips unparseable names too
    DnsMessage query = DnsMessage::make_query(id++, *qname, q.qtype);
    net::attach_replay_meta(query, {.ts = q.ts, .client_id = q.client});
    const auto result = client.query(query, /*timeout_ms=*/5000);
    ASSERT_TRUE(result.has_value())
        << "query " << replayed << " (" << q.qname
        << ") failed: " << client.error();
    ++replayed;
  }
  EXPECT_EQ(day->frontend().stats().queries, replayed);
  const MiningDayResult result_b = day->finish();
  ASSERT_TRUE(result_b.ok()) << result_b.error;

  // The whole observable surface must match, byte for byte: the
  // capture fact by fact (the first differing line fails), then the
  // findings, aggregates and evaluation.
  const std::vector<std::string> want = capture_lines(capture_a);
  const std::vector<std::string> got = capture_lines(day->capture());
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    ASSERT_EQ(got[i], want[i]) << "capture line " << i;
  }
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(findings_fingerprint(result_a.findings),
            findings_fingerprint(result_b.findings));
  EXPECT_FALSE(result_a.findings.empty());
  EXPECT_EQ(result_a.aggregates.unique_queried,
            result_b.aggregates.unique_queried);
  EXPECT_EQ(result_a.aggregates.unique_resolved,
            result_b.aggregates.unique_resolved);
  EXPECT_EQ(result_a.aggregates.disposable_queried,
            result_b.aggregates.disposable_queried);
  EXPECT_EQ(result_a.aggregates.disposable_resolved,
            result_b.aggregates.disposable_resolved);
  EXPECT_EQ(result_a.aggregates.unique_rrs, result_b.aggregates.unique_rrs);
  EXPECT_EQ(result_a.aggregates.disposable_rrs,
            result_b.aggregates.disposable_rrs);
  EXPECT_EQ(result_a.evaluation.findings, result_b.evaluation.findings);
  EXPECT_EQ(result_a.evaluation.true_positive_findings,
            result_b.evaluation.true_positive_findings);
  EXPECT_EQ(result_a.evaluation.false_positive_findings,
            result_b.evaluation.false_positive_findings);
  EXPECT_EQ(result_a.evaluation.unique_2lds, result_b.evaluation.unique_2lds);
  EXPECT_EQ(result_a.evaluation.truth_zones_discovered,
            result_b.evaluation.truth_zones_discovered);
  EXPECT_EQ(result_a.evaluation.discovered_by_archetype,
            result_b.evaluation.discovered_by_archetype);
}

TEST(WireGolden, ServeWithoutEnableReturnsNull) {
  MiningSession session;
  EXPECT_EQ(session.serve(ScenarioDate::kFeb01), nullptr);
}

}  // namespace
}  // namespace dnsnoise
