// Wire front-end robustness and protocol tests (DESIGN.md §14).
//
// The table-driven malformed-input suite is the server's crash contract:
// truncated headers, compression pointer loops, over-long names, and junk
// payloads must be answered with FORMERR or dropped — never a crash — and
// the suite runs under the ASan/UBSan CI labels to prove it.
#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dns/wire.h"
#include "engine/parallel_miner.h"
#include "net/udp_client.h"
#include "obs/metrics.h"
#include "resolver/wire_frontend.h"
#include "util/rng.h"

namespace dnsnoise {
namespace {

constexpr std::size_t kFatAnswerCount = 40;  // well past the 512-byte limit

/// Minimal authority for the frontend tests: one ordinary zone, one zone
/// whose responses overflow UDP, everything else NXDOMAIN.
class WireFrontendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    authority_.register_zone(*DomainName::parse("smoke.test"),
                             SyntheticAuthority::make_flat_a_zone(60));
    authority_.register_zone(
        *DomainName::parse("fat.test"),
        [](const Question&, SimTime, AuthorityAnswer& out) {
          out.rcode = RCode::NoError;
          for (std::size_t i = 0; i < kFatAnswerCount; ++i) {
            out.add_a(60, Ipv4::from_octets(
                              10, 0, static_cast<std::uint8_t>(i / 256),
                              static_cast<std::uint8_t>(i % 256)));
          }
        });
    ClusterConfig config;
    config.server_count = 1;
    cluster_ = std::make_unique<RdnsCluster>(config, authority_);
  }

  WireFrontend& frontend(bool start = true,
                         obs::MetricsRegistry* metrics = nullptr) {
    WireFrontendConfig config;
    config.allow_replay_meta = true;
    config.metrics = metrics;
    frontend_ =
        std::make_unique<WireFrontend>(std::array{cluster_.get()}, config);
    if (start) {
      EXPECT_TRUE(frontend_->start()) << frontend_->error();
    }
    return *frontend_;
  }

  /// Runs one payload through the shared handler (no socket round trip).
  bool handle(WireFrontend& fe, const std::vector<std::uint8_t>& request,
              std::vector<std::uint8_t>& response) {
    return fe.handle_query(request, net::UdpPeer{0x7f000001, 9999}, response,
                           WireFrontend::Transport::kUdp);
  }

  SyntheticAuthority authority_;
  std::unique_ptr<RdnsCluster> cluster_;
  std::unique_ptr<WireFrontend> frontend_;
};

std::vector<std::uint8_t> query_bytes(const std::string& qname,
                                      RRType type = RRType::A,
                                      std::uint16_t id = 1) {
  return encode_message(
      DnsMessage::make_query(id, *DomainName::parse(qname), type));
}

// --- Protocol happy paths --------------------------------------------------

TEST_F(WireFrontendTest, AnswersRegisteredNameOverUdp) {
  WireFrontend& fe = frontend();
  net::DnsWireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fe.udp_port()));
  const auto result = client.query(DnsMessage::make_query(
      77, *DomainName::parse("a.smoke.test"), RRType::A));
  ASSERT_TRUE(result.has_value()) << client.error();
  EXPECT_FALSE(result->via_tcp);
  EXPECT_EQ(result->response.header.rcode, RCode::NoError);
  EXPECT_TRUE(result->response.header.qr);
  EXPECT_TRUE(result->response.header.ra);
  ASSERT_EQ(result->response.answers.size(), 1u);
  EXPECT_EQ(result->response.answers[0].type, RRType::A);
  EXPECT_EQ(fe.stats().queries, 1u);
  EXPECT_EQ(fe.stats().udp_queries, 1u);
}

TEST_F(WireFrontendTest, AnswersAaaaQueries) {
  WireFrontend& fe = frontend();
  net::DnsWireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fe.udp_port()));
  const auto result = client.query(DnsMessage::make_query(
      78, *DomainName::parse("v6.smoke.test"), RRType::AAAA));
  ASSERT_TRUE(result.has_value()) << client.error();
  EXPECT_EQ(result->response.header.rcode, RCode::NoError);
  ASSERT_EQ(result->response.answers.size(), 1u);
  EXPECT_EQ(result->response.answers[0].type, RRType::AAAA);
}

TEST_F(WireFrontendTest, UnregisteredNameIsNxdomain) {
  WireFrontend& fe = frontend();
  net::DnsWireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fe.udp_port()));
  const auto result = client.query(DnsMessage::make_query(
      79, *DomainName::parse("nowhere.invalid"), RRType::A));
  ASSERT_TRUE(result.has_value()) << client.error();
  EXPECT_EQ(result->response.header.rcode, RCode::NXDomain);
  EXPECT_TRUE(result->response.answers.empty());
}

TEST_F(WireFrontendTest, OversizeResponseTruncatesThenServesOverTcp) {
  WireFrontend& fe = frontend();
  net::DnsWireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fe.udp_port(), fe.tcp_port()));
  const auto result = client.query(DnsMessage::make_query(
      80, *DomainName::parse("big.fat.test"), RRType::A));
  ASSERT_TRUE(result.has_value()) << client.error();
  EXPECT_TRUE(result->udp_truncated);
  EXPECT_TRUE(result->via_tcp);
  EXPECT_EQ(result->response.header.rcode, RCode::NoError);
  EXPECT_FALSE(result->response.header.tc);
  EXPECT_EQ(result->response.answers.size(), kFatAnswerCount);
  EXPECT_EQ(fe.stats().truncated, 1u);
  EXPECT_EQ(fe.stats().tcp_queries, 1u);
}

TEST_F(WireFrontendTest, TruncatedUdpResponseKeepsHeaderAndQuestion) {
  WireFrontend& fe = frontend();
  net::DnsWireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fe.udp_port()));
  const auto result =
      client.query(DnsMessage::make_query(
                       81, *DomainName::parse("big.fat.test"), RRType::A),
                   /*timeout_ms=*/1000, /*tcp_fallback=*/false);
  ASSERT_TRUE(result.has_value()) << client.error();
  EXPECT_TRUE(result->response.header.tc);
  EXPECT_TRUE(result->response.answers.empty());
  ASSERT_EQ(result->response.questions.size(), 1u);
  EXPECT_EQ(result->response.questions[0].name.text(), "big.fat.test");
}

TEST_F(WireFrontendTest, ReplayMetaDrivesCacheTimeline) {
  WireFrontend& fe = frontend();
  net::DnsWireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fe.udp_port()));
  DnsMessage query = DnsMessage::make_query(
      90, *DomainName::parse("hot.smoke.test"), RRType::A);
  net::attach_replay_meta(query, {.ts = 1000, .client_id = 5});
  ASSERT_TRUE(client.query(query).has_value());
  // Same name 10 simulated seconds later: served from cache, same rdata.
  DnsMessage repeat = DnsMessage::make_query(
      91, *DomainName::parse("hot.smoke.test"), RRType::A);
  net::attach_replay_meta(repeat, {.ts = 1010, .client_id = 5});
  const auto second = client.query(repeat);
  ASSERT_TRUE(second.has_value()) << client.error();
  ASSERT_EQ(second->response.answers.size(), 1u);
  // TTL 60 at +10s: the cached record is still live.
  EXPECT_EQ(fe.stats().queries, 2u);
}

TEST_F(WireFrontendTest, ExportsServerMetrics) {
  obs::MetricsRegistry metrics;
  WireFrontend& fe = frontend(/*start=*/true, &metrics);
  net::DnsWireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fe.udp_port()));
  ASSERT_TRUE(client
                  .query(DnsMessage::make_query(
                      92, *DomainName::parse("m.smoke.test"), RRType::A))
                  .has_value());
  EXPECT_EQ(metrics.counter("server.queries").value(), 1u);
  std::vector<std::uint8_t> response;
  std::vector<std::uint8_t> junk(20, 0xff);
  handle(fe, junk, response);
  EXPECT_EQ(metrics.counter("server.formerr").value(), 1u);
}

TEST_F(WireFrontendTest, StageLatencyLandsInTheRegistryPerFrontend) {
  // Stage clocks go straight into the registry histograms (no flush), and
  // stage_latency() reports only this frontend's queries even when an
  // earlier frontend (an earlier served day) shared the registry.
  obs::MetricsRegistry metrics;
  std::vector<std::uint8_t> response;
  WireFrontend& first = frontend(/*start=*/false, &metrics);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(handle(first, query_bytes("a.smoke.test"), response));
  }
  EXPECT_EQ(first.stage_latency().total.count, 3u);
  EXPECT_EQ(metrics.histogram("server.latency.total_ns").snapshot().count,
            3u);

  WireFrontend& second = frontend(/*start=*/false, &metrics);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(handle(second, query_bytes("b.smoke.test"), response));
  }
  const StageLatencyBreakdown own = second.stage_latency();
  EXPECT_EQ(own.decode.count, 2u);
  EXPECT_EQ(own.cluster.count, 2u);
  EXPECT_EQ(own.encode.count, 2u);
  EXPECT_EQ(own.total.count, 2u);
  EXPECT_EQ(metrics.histogram("server.latency.total_ns").snapshot().count,
            5u);
}

// --- Malformed input: the crash contract -----------------------------------

struct MalformedCase {
  const char* label;
  std::vector<std::uint8_t> payload;
  /// Expected disposition: true = answered with `rcode`, false = dropped.
  bool answered;
  RCode rcode;
};

std::vector<MalformedCase> malformed_cases() {
  std::vector<MalformedCase> cases;
  cases.push_back({"empty", {}, false, RCode::NoError});
  cases.push_back({"one_byte", {0xab}, false, RCode::NoError});
  cases.push_back(
      {"eleven_byte_header", std::vector<std::uint8_t>(11, 0), false,
       RCode::NoError});
  // 12-byte header claiming one question that never follows.
  cases.push_back({"header_only_qdcount_1",
                   {0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0},
                   true, RCode::FormErr});
  // qdcount=0 is not a query this server can answer meaningfully.
  cases.push_back({"zero_questions",
                   {0x12, 0x34, 0x01, 0x00, 0x00, 0x00, 0, 0, 0, 0, 0, 0},
                   true, RCode::FormErr});
  // Question whose name is a compression pointer at itself (loop).
  cases.push_back({"pointer_self_loop",
                   {0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0,
                    0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01},
                   true, RCode::FormErr});
  // Label length byte runs past the end of the payload.
  cases.push_back({"label_overrun",
                   {0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0,
                    0x3f, 'a', 'b', 'c'},
                   true, RCode::FormErr});
  // A name over the 255-byte wire limit: five 63-byte labels.
  {
    std::vector<std::uint8_t> overlong = {0x12, 0x34, 0x01, 0x00, 0x00, 0x01,
                                          0,    0,    0,    0,    0,    0};
    for (int label = 0; label < 5; ++label) {
      overlong.push_back(63);
      overlong.insert(overlong.end(), 63, 'x');
    }
    overlong.push_back(0);
    overlong.insert(overlong.end(), {0x00, 0x01, 0x00, 0x01});
    cases.push_back({"overlong_name", std::move(overlong), true,
                     RCode::FormErr});
  }
  // A response (QR=1) must never be answered — loop prevention.
  {
    auto response_bits = encode_message(DnsMessage::make_query(
        9, *DomainName::parse("a.smoke.test"), RRType::A));
    response_bits[2] |= 0x80;
    cases.push_back(
        {"qr_response", std::move(response_bits), false, RCode::NoError});
  }
  // Non-QUERY opcode (STATUS = 2).
  {
    auto status = encode_message(DnsMessage::make_query(
        9, *DomainName::parse("a.smoke.test"), RRType::A));
    status[2] = static_cast<std::uint8_t>((status[2] & 0x87) | (2 << 3));
    cases.push_back({"opcode_status", std::move(status), true, RCode::NotImp});
  }
  // Two questions in one message.
  {
    DnsMessage two = DnsMessage::make_query(
        9, *DomainName::parse("a.smoke.test"), RRType::A);
    two.questions.push_back(two.questions.front());
    cases.push_back(
        {"two_questions", encode_message(two), true, RCode::FormErr});
  }
  return cases;
}

TEST_F(WireFrontendTest, MalformedTableNeverCrashes) {
  WireFrontend& fe = frontend(/*start=*/false);
  for (const MalformedCase& test : malformed_cases()) {
    SCOPED_TRACE(test.label);
    std::vector<std::uint8_t> response;
    const bool answered = handle(fe, test.payload, response);
    EXPECT_EQ(answered, test.answered);
    if (!test.answered) continue;
    const auto decoded = decode_message(response);
    ASSERT_TRUE(decoded.has_value()) << "undecodable error response";
    EXPECT_EQ(decoded->header.rcode, test.rcode);
    EXPECT_TRUE(decoded->header.qr);
    if (test.payload.size() >= 2) {
      const std::uint16_t id = static_cast<std::uint16_t>(
          (test.payload[0] << 8) | test.payload[1]);
      EXPECT_EQ(decoded->header.id, id) << "error must echo the query id";
    }
  }
  const WireFrontendStats stats = fe.stats();
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_GT(stats.formerr, 0u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.notimp, 0u);
}

TEST_F(WireFrontendTest, MalformedTableOverRealSocket) {
  WireFrontend& fe = frontend();
  for (const MalformedCase& test : malformed_cases()) {
    SCOPED_TRACE(test.label);
    net::UdpClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", fe.udp_port()));
    const auto reply =
        client.exchange(test.payload, test.answered ? 2000 : 200);
    EXPECT_EQ(reply.has_value(), test.answered);
    if (reply.has_value()) {
      const auto decoded = decode_message(*reply);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->header.rcode, test.rcode);
    }
  }
  // The server survives the whole table: a normal query still works.
  net::DnsWireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fe.udp_port()));
  EXPECT_TRUE(client
                  .query(DnsMessage::make_query(
                      99, *DomainName::parse("ok.smoke.test"), RRType::A))
                  .has_value());
}

TEST_F(WireFrontendTest, SeededJunkFuzzNeverCrashes) {
  WireFrontend& fe = frontend(/*start=*/false);
  Rng rng(0xf00dcafeULL);  // fixed seed: failures must reproduce
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> response;
  for (int iteration = 0; iteration < 400; ++iteration) {
    payload.resize(rng.below(96));
    for (std::uint8_t& b : payload) {
      b = static_cast<std::uint8_t>(rng.below(256));
    }
    if (fe.handle_query(payload, net::UdpPeer{1, 2}, response,
                        WireFrontend::Transport::kUdp)) {
      // Whatever we answered must itself be valid wire format.
      EXPECT_TRUE(decode_message(response).has_value());
    }
  }
  const WireFrontendStats stats = fe.stats();
  EXPECT_EQ(stats.queries + stats.formerr + stats.notimp + stats.dropped,
            400u);
}

TEST_F(WireFrontendTest, TcpTransportNeverTruncates) {
  WireFrontend& fe = frontend(/*start=*/false);
  std::vector<std::uint8_t> response;
  ASSERT_TRUE(fe.handle_query(query_bytes("big.fat.test"),
                              net::UdpPeer{1, 2}, response,
                              WireFrontend::Transport::kTcp));
  const auto decoded = decode_message(response);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->header.tc);
  EXPECT_EQ(decoded->answers.size(), kFatAnswerCount);
  EXPECT_GT(response.size(), 512u);
}

// --- Served day --------------------------------------------------------------

TEST(ServedDayTest, RootQuestionDoesNotStallFinish) {
  // A "." question decodes, resolves NXDOMAIN and is tapped as a queried
  // name with no labels; mining the day must still finish.
  const ScenarioDate date = ScenarioDate::kSep13;
  const std::int64_t day_index = scenario_day_index(date);
  ScenarioScale scale;
  scale.queries_per_day = 12'000;
  scale.client_count = 800;
  scale.population_scale = 0.35;
  ClusterConfig cluster;
  cluster.server_count = 1;

  struct Recorded {
    SimTime ts;
    std::uint64_t client;
    std::string qname;
    RRType qtype;
  };
  std::vector<Recorded> stream;
  Scenario recorder(date, scale);
  recorder.traffic().run_day_shard(
      day_index, {1, 0},
      [&stream](SimTime ts, std::uint64_t client, const QuerySpec& query) {
        stream.push_back({ts, client, query.qname, query.qtype});
      });
  ASSERT_GT(stream.size(), 1000u);

  MiningSession session;
  session.scale(scale).cluster(cluster).threads(1);
  session.enable_dns_server(true);
  const auto day = session.serve(date);
  ASSERT_NE(day, nullptr);
  ASSERT_TRUE(day->ok()) << day->error();
  net::DnsWireClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", day->udp_port(), day->tcp_port()));

  std::uint16_t id = 1;
  const auto send = [&](const DomainName& qname, RRType qtype, SimTime ts,
                        std::uint64_t client_id) {
    DnsMessage query = DnsMessage::make_query(id++, qname, qtype);
    net::attach_replay_meta(query, {.ts = ts, .client_id = client_id});
    return client.query(query, /*timeout_ms=*/5000);
  };
  const auto root = send(DomainName("."), RRType::A, stream.front().ts, 1);
  ASSERT_TRUE(root.has_value()) << client.error();
  EXPECT_EQ(root->response.header.rcode, RCode::NXDomain);
  for (const Recorded& q : stream) {
    const auto qname = DomainName::parse(q.qname);
    if (!qname) continue;
    ASSERT_TRUE(send(*qname, q.qtype, q.ts, q.client).has_value())
        << q.qname << ": " << client.error();
  }

  const MiningDayResult result = day->finish();
  ASSERT_TRUE(result.ok()) << result.error;
  const DayCapture& capture = day->capture();
  EXPECT_NE(std::ranges::find(capture.queried_names(),
                              capture.names().find("")),
            capture.queried_names().end());
}

}  // namespace
}  // namespace dnsnoise
