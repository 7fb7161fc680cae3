#include "netio/capture.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "dns/wire.h"
#include "tap_feed.h"

namespace dnsnoise {
namespace {

const Ipv4 kResolver1 = Ipv4::from_octets(10, 0, 0, 1);
const Ipv4 kResolver2 = Ipv4::from_octets(10, 0, 0, 2);
const Ipv4 kClient = Ipv4::from_octets(192, 168, 7, 7);
const Ipv4 kAuthority = Ipv4::from_octets(203, 0, 113, 9);

DnsMessage sample_answer(const char* qname) {
  DnsMessage query = DnsMessage::make_query(1, DomainName(qname), RRType::A);
  std::vector<ResourceRecord> answers;
  answers.push_back({DomainName(qname), RRType::A, 60, "198.51.100.1"});
  return DnsMessage::make_response(query, RCode::NoError, std::move(answers));
}

CaptureDecoder make_decoder() {
  return CaptureDecoder({kResolver1, kResolver2});
}
static_assert(std::is_move_constructible_v<CaptureDecoder>);

/// One delivered event, copied out of its batch.
struct Seen {
  TapEvent event;
  std::string qname;
  std::vector<ResourceRecord> answers;
};

/// Records every event a producer delivers, and the batch sizes.
class Recorder final : public TapObserver {
 public:
  void on_tap_batch(const TapBatch& batch) override {
    batches.push_back(batch.size());
    for (const TapEvent& event : batch) {
      Seen& seen = events.emplace_back();
      seen.event = event;
      seen.qname = batch.qname(event);
      to_resource_records(batch.answers(event), batch.names(), seen.answers);
    }
  }

  std::vector<std::size_t> batches;
  std::vector<Seen> events;
};

/// `decoder` decodes `frame` with a recorder attached and flushes.
std::vector<Seen> decode_one(CaptureDecoder& decoder, SimTime ts,
                             std::span<const std::uint8_t> frame) {
  Recorder recorder;
  decoder.add_tap_observer(&recorder);
  decoder.decode(ts, frame);
  decoder.remove_tap_observer(&recorder);
  return recorder.events;
}

TEST(CaptureTest, BelowDirection) {
  auto decoder = make_decoder();
  const auto frame = build_dns_frame(kResolver1, 53, kClient, 40000,
                                     sample_answer("www.example.com"));
  // Unobserved, a response is only counted: nothing is interned.
  EXPECT_TRUE(decoder.decode(1, frame));
  EXPECT_EQ(decoder.names().size(), 0u);
  const auto events = decode_one(decoder, 1234, frame);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event.direction, TapDirection::kBelow);
  EXPECT_EQ(events[0].event.ts, 1234);
  EXPECT_NE(events[0].event.client_id, 0u);
  EXPECT_EQ(events[0].qname, "www.example.com");
  EXPECT_EQ(events[0].event.qtype, RRType::A);
  EXPECT_EQ(events[0].event.rcode, RCode::NoError);
  ASSERT_EQ(events[0].answers.size(), 1u);
  EXPECT_EQ(events[0].answers[0].name.text(), "www.example.com");
  EXPECT_EQ(events[0].answers[0].rdata, "198.51.100.1");
  EXPECT_EQ(events[0].answers[0].ttl, 60u);
}

TEST(CaptureTest, AboveDirection) {
  auto decoder = make_decoder();
  const auto frame = build_dns_frame(kAuthority, 53, kResolver2, 33333,
                                     sample_answer("www.example.com"));
  const auto events = decode_one(decoder, 99, frame);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event.direction, TapDirection::kAbove);
  EXPECT_EQ(events[0].event.client_id, 0u);
}

TEST(CaptureTest, ClientIdsAreStableAndAnonymized) {
  auto decoder = make_decoder();
  const auto frame = build_dns_frame(kResolver1, 53, kClient, 40000,
                                     sample_answer("a.example.com"));
  const auto e1 = decode_one(decoder, 1, frame);
  const auto e2 = decode_one(decoder, 2, frame);
  ASSERT_EQ(e1.size(), 1u);
  ASSERT_EQ(e2.size(), 1u);
  EXPECT_EQ(e1[0].event.client_id, e2[0].event.client_id);
  // The raw client address must not be recoverable from the ID directly.
  EXPECT_NE(e1[0].event.client_id, static_cast<std::uint64_t>(kClient.value));

  // A different salt yields different IDs.
  CaptureDecoder other({kResolver1, kResolver2}, /*anonymization_salt=*/999);
  const auto e3 = decode_one(other, 1, frame);
  ASSERT_EQ(e3.size(), 1u);
  EXPECT_NE(e3[0].event.client_id, e1[0].event.client_id);
}

TEST(CaptureTest, DropsQueries) {
  auto decoder = make_decoder();
  const DnsMessage query =
      DnsMessage::make_query(5, DomainName("q.example.com"), RRType::A);
  const auto frame = build_dns_frame(kResolver1, 53, kClient, 40000, query);
  EXPECT_TRUE(decode_one(decoder, 1, frame).empty());
  EXPECT_EQ(decoder.dropped(), 1u);
}

TEST(CaptureTest, DropsWrongPort) {
  auto decoder = make_decoder();
  const auto frame = build_dns_frame(kResolver1, 8080, kClient, 40000,
                                     sample_answer("x.example.com"));
  EXPECT_TRUE(decode_one(decoder, 1, frame).empty());
  EXPECT_EQ(decoder.dropped(), 1u);
}

TEST(CaptureTest, DropsUnrelatedHosts) {
  auto decoder = make_decoder();
  const auto frame = build_dns_frame(kAuthority, 53, kClient, 40000,
                                     sample_answer("x.example.com"));
  EXPECT_TRUE(decode_one(decoder, 1, frame).empty());
  EXPECT_EQ(decoder.dropped(), 1u);
}

TEST(CaptureTest, DropsGarbagePayload) {
  auto decoder = make_decoder();
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  const auto frame = build_udp4_frame(kResolver1, 53, kClient, 40000, junk);
  EXPECT_TRUE(decode_one(decoder, 1, frame).empty());
  EXPECT_EQ(decoder.dropped(), 1u);
  // Junk as the frame itself fails the frame parse.
  EXPECT_TRUE(decode_one(decoder, 2, junk).empty());
  EXPECT_EQ(decoder.dropped(), 2u);
  EXPECT_EQ(decoder.accepted(), 0u);
}

TEST(CaptureTest, DropsResponsesWithoutExactlyOneQuestion) {
  // From the resolver: a bare QR=1 header with no question, and a
  // response with two.
  DnsMessage two = sample_answer("a.example.com");
  two.questions.push_back({DomainName("b.example.com"), RRType::A});
  const std::vector<std::uint8_t> none = {0x12, 0x34, 0x80, 0, 0, 0,
                                          0,    0,    0,    0, 0, 0};
  const auto no_question =
      build_udp4_frame(kResolver1, 53, kClient, 40000, none);
  const auto two_questions =
      build_dns_frame(kResolver1, 53, kClient, 40000, two);
  auto decoder = make_decoder();
  EXPECT_TRUE(decode_one(decoder, 1, no_question).empty());
  EXPECT_TRUE(decode_one(decoder, 2, two_questions).empty());
  EXPECT_EQ(decoder.dropped(), 2u);
  EXPECT_EQ(decoder.accepted(), 0u);
  EXPECT_EQ(decoder.names().size(), 0u);
}

TEST(CaptureTest, PcapEndToEnd) {
  // Write a pcap with a mixture of frames; decode_pcap must deliver
  // exactly the DNS responses touching the cluster, in file order.
  PcapWriter writer;
  writer.write(10, 0, build_dns_frame(kResolver1, 53, kClient, 40000,
                                      sample_answer("one.example.com")));
  writer.write(11, 0, build_dns_frame(kAuthority, 53, kResolver1, 5353,
                                      sample_answer("two.example.com")));
  // Noise: a query and an unrelated response.
  writer.write(12, 0,
               build_dns_frame(kResolver1, 53, kClient, 40000,
                               DnsMessage::make_query(
                                   9, DomainName("q.example.com"), RRType::A)));
  writer.write(13, 0, build_dns_frame(kAuthority, 53, kClient, 40000,
                                      sample_answer("three.example.com")));

  auto decoder = make_decoder();
  Recorder recorder;
  decoder.add_tap_observer(&recorder);
  const std::size_t produced = decoder.decode_pcap(writer.bytes());
  ASSERT_EQ(produced, 2u);
  // decode_pcap flushes at the end of the file: one batch of two.
  EXPECT_EQ(recorder.batches, std::vector<std::size_t>{2});
  ASSERT_EQ(recorder.events.size(), 2u);
  EXPECT_EQ(recorder.events[0].event.direction, TapDirection::kBelow);
  EXPECT_EQ(recorder.events[0].event.ts, 10);
  EXPECT_EQ(recorder.events[1].event.direction, TapDirection::kAbove);
  EXPECT_EQ(recorder.events[1].answers[0].name.text(), "two.example.com");
  EXPECT_EQ(decoder.accepted(), 2u);
  EXPECT_EQ(decoder.dropped(), 2u);
}

TEST(CaptureTest, PcapTapWriterGivesEachClientItsOwnAddress) {
  // Client ids 1 and 65001 are 65,000 apart, so a modulo-65,000 address
  // would merge them.  The writer's resolver address is also its first
  // client address, which it must skip.
  PcapWriter writer;
  {
    PcapTapWriter pcap_tap(writer, kResolver1);
    TapFeed feed(pcap_tap);
    feed.below(1, 1, "a.example.com", RCode::NoError);
    feed.below(2, 65001, "b.example.com", RCode::NoError);
    feed.below(3, 7, "c.example.com", RCode::NoError);
    feed.below(4, 1, "d.example.com", RCode::NoError);
  }
  CaptureDecoder decoder({kResolver1});
  Recorder recorder;
  decoder.add_tap_observer(&recorder);
  ASSERT_EQ(decoder.decode_pcap(writer.bytes()), 4u);
  ASSERT_EQ(recorder.events.size(), 4u);
  std::set<std::uint64_t> clients;
  for (const Seen& seen : recorder.events) {
    EXPECT_EQ(seen.event.direction, TapDirection::kBelow);
    clients.insert(seen.event.client_id);
  }
  EXPECT_EQ(clients.size(), 3u);
  EXPECT_EQ(recorder.events[0].event.client_id,
            recorder.events[3].event.client_id);
}

// The TapBuffer contract, through the decoder (ClusterTest covers the
// cluster).

TEST(CaptureTest, TapBatchesFlushAtBatchSizeAndPreserveOrder) {
  // 300 responses: the first 256 are delivered as one full batch while
  // decoding, the rest by decode_pcap's end-of-file flush.
  PcapWriter writer;
  for (std::uint32_t i = 0; i < 300; ++i) {
    const std::string name = "n" + std::to_string(i) + ".example.com";
    writer.write(i, 0, build_dns_frame(kResolver1, 53, kClient, 40000,
                                       sample_answer(name.c_str())));
  }
  auto decoder = make_decoder();
  Recorder recorder;
  decoder.add_tap_observer(&recorder);
  ASSERT_EQ(decoder.decode_pcap(writer.bytes()), 300u);
  EXPECT_EQ(recorder.batches, (std::vector<std::size_t>{256, 44}));
  ASSERT_EQ(recorder.events.size(), 300u);
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(recorder.events[i].event.ts, static_cast<SimTime>(i));
  }
}

TEST(CaptureTest, RemovingObserverFlushesPendingEvents) {
  auto decoder = make_decoder();
  Recorder recorder;
  decoder.add_tap_observer(&recorder);
  decoder.add_response(1, TapDirection::kAbove, 0, sample_answer("a.test"));
  EXPECT_TRUE(recorder.events.empty());  // buffered, not yet delivered
  decoder.remove_tap_observer(&recorder);
  EXPECT_EQ(recorder.events.size(), 1u);
}

TEST(CaptureTest, NullOrDuplicateObserverIsRejected) {
  auto decoder = make_decoder();
  EXPECT_THROW(decoder.add_tap_observer(nullptr), std::invalid_argument);
  Recorder recorder;
  decoder.add_tap_observer(&recorder);
  decoder.add_tap_observer(&recorder);  // deduplicated, not double-delivered
  decoder.add_response(1, TapDirection::kAbove, 0, sample_answer("a.test"));
  decoder.flush_taps();
  EXPECT_EQ(recorder.events.size(), 1u);
}

}  // namespace
}  // namespace dnsnoise
