#include "dns/wire.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "util/rng.h"

// Allocation probe: this binary replaces global operator new so a test can
// record the largest single allocation made while a flag is set.  The
// tests run on one thread.
namespace {
std::atomic<bool> g_recording{false};
std::atomic<std::size_t> g_largest{0};

void* probed_alloc(std::size_t size) noexcept {
  if (g_recording.load(std::memory_order_relaxed) &&
      size > g_largest.load(std::memory_order_relaxed)) {
    g_largest.store(size, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line: an inlined free() of a pointer from a replaced operator new
// draws a false -Wmismatched-new-delete.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = probed_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = probed_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return probed_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return probed_alloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace dnsnoise {
namespace {

DnsMessage sample_response() {
  DnsMessage query =
      DnsMessage::make_query(0x1234, DomainName("www.example.com"), RRType::A);
  std::vector<ResourceRecord> answers;
  answers.push_back({DomainName("www.example.com"), RRType::A, 300,
                     "192.0.2.1"});
  answers.push_back({DomainName("www.example.com"), RRType::A, 300,
                     "192.0.2.2"});
  return DnsMessage::make_response(query, RCode::NoError, std::move(answers));
}

TEST(WireTest, QueryRoundTrip) {
  const DnsMessage query =
      DnsMessage::make_query(7, DomainName("a.b.example.org"), RRType::AAAA);
  const auto wire = encode_message(query);
  const auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, query);
}

TEST(WireTest, ResponseRoundTrip) {
  const DnsMessage response = sample_response();
  const auto wire = encode_message(response);
  const auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, response);
}

TEST(WireTest, HeaderFlagsSurvive) {
  DnsMessage msg = sample_response();
  msg.header.aa = true;
  msg.header.tc = true;
  msg.header.rd = false;
  msg.header.ra = true;
  msg.header.rcode = RCode::ServFail;
  msg.answers.clear();
  const auto decoded = decode_message(encode_message(msg));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->header, msg.header);
}

TEST(WireTest, NxdomainResponse) {
  const DnsMessage query =
      DnsMessage::make_query(9, DomainName("no.such.name.com"), RRType::A);
  const DnsMessage response =
      DnsMessage::make_response(query, RCode::NXDomain, {});
  const auto decoded = decode_message(encode_message(response));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->header.rcode, RCode::NXDomain);
  EXPECT_TRUE(decoded->answers.empty());
  EXPECT_EQ(decoded->questions.at(0).name.text(), "no.such.name.com");
}

TEST(WireTest, CnameChainRoundTrip) {
  DnsMessage query = DnsMessage::make_query(3, DomainName("x.example.com"),
                                            RRType::A);
  std::vector<ResourceRecord> answers;
  answers.push_back({DomainName("x.example.com"), RRType::CNAME, 60,
                     "edge-1.l.example.com"});
  answers.push_back({DomainName("edge-1.l.example.com"), RRType::A, 60,
                     "10.1.2.3"});
  const DnsMessage response =
      DnsMessage::make_response(query, RCode::NoError, std::move(answers));
  const auto decoded = decode_message(encode_message(response));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, response);
}

TEST(WireTest, AaaaRoundTrip) {
  DnsMessage query = DnsMessage::make_query(4, DomainName("v6.example.com"),
                                            RRType::AAAA);
  std::vector<ResourceRecord> answers;
  answers.push_back({DomainName("v6.example.com"), RRType::AAAA, 120,
                     "2001:db8::42"});
  const DnsMessage response =
      DnsMessage::make_response(query, RCode::NoError, std::move(answers));
  const auto decoded = decode_message(encode_message(response));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->answers.at(0).rdata, "2001:db8::42");
}

TEST(WireTest, TxtRoundTripIncludingLongStrings) {
  DnsMessage query =
      DnsMessage::make_query(5, DomainName("t.example.com"), RRType::TXT);
  std::vector<ResourceRecord> answers;
  answers.push_back({DomainName("t.example.com"), RRType::TXT, 60,
                     std::string(600, 'x')});  // forces multi-chunk encoding
  const DnsMessage response =
      DnsMessage::make_response(query, RCode::NoError, std::move(answers));
  const auto decoded = decode_message(encode_message(response));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->answers.at(0).rdata, std::string(600, 'x'));
}

TEST(WireTest, CompressionShrinksRepeatedNames) {
  // Same owner name in the question and two answers: compression must beat
  // naive re-encoding.
  const DnsMessage response = sample_response();
  const auto wire = encode_message(response);
  const std::size_t name_bytes =
      DomainName("www.example.com").text().size() + 2;
  // Naive: 3 copies of the name; compressed: 1 copy + 2 two-byte pointers.
  EXPECT_LT(wire.size(), 12 + name_bytes * 3 + 2 * (2 + 2 + 4 + 2 + 4) + 4);
}

TEST(WireTest, BadARdataThrowsOnEncode) {
  DnsMessage msg;
  msg.answers.push_back({DomainName("x.com"), RRType::A, 60, "not-an-ip"});
  EXPECT_THROW(encode_message(msg), std::invalid_argument);
}

TEST(WireTest, DecodeRejectsTruncatedHeader) {
  const std::vector<std::uint8_t> tiny = {0x00, 0x01, 0x02};
  EXPECT_FALSE(decode_message(tiny));
}

TEST(WireTest, DecodeSizesSectionsByTheBytesNotTheCounts) {
  // A bare response header that claims 65,535 answers and carries none:
  // reserving by the count would take 65,535 ResourceRecords at once.
  const std::vector<std::uint8_t> header = {0x12, 0x34, 0x80, 0x00,
                                            0x00, 0x00, 0xff, 0xff,
                                            0x00, 0x00, 0x00, 0x00};
  g_largest.store(0);
  g_recording.store(true);
  const auto msg = decode_message(header);
  g_recording.store(false);
  EXPECT_FALSE(msg);
  EXPECT_LT(g_largest.load(), std::size_t{64} * 1024);
}

TEST(WireTest, DecodeRejectsCompressionLoop) {
  // Header claiming one question whose name is a pointer to itself.
  std::vector<std::uint8_t> wire(12, 0);
  wire[5] = 1;  // qdcount = 1
  wire.push_back(0xc0);
  wire.push_back(0x0c);  // pointer to offset 12 (itself)
  wire.push_back(0x00);
  wire.push_back(0x01);
  wire.push_back(0x00);
  wire.push_back(0x01);
  EXPECT_FALSE(decode_message(wire));
}

TEST(WireTest, DecodeRejectsForwardPointer) {
  std::vector<std::uint8_t> wire(12, 0);
  wire[5] = 1;
  wire.push_back(0xc0);
  wire.push_back(0x30);  // pointer past the current position
  wire.push_back(0x00);
  wire.push_back(0x01);
  wire.push_back(0x00);
  wire.push_back(0x01);
  EXPECT_FALSE(decode_message(wire));
}

TEST(WireTest, TruncationSweepNeverCrashes) {
  // Property: every strict prefix of a valid message decodes to nullopt or
  // (for prefixes that happen to be self-delimiting) a valid message — and
  // never crashes or reads out of bounds.
  const auto wire = encode_message(sample_response());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const auto decoded = decode_message(
        std::span<const std::uint8_t>(wire.data(), len));
    // Prefixes shorter than the header can never decode.
    if (len < 12) {
      EXPECT_FALSE(decoded);
    }
  }
}

class WireFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)decode_message(junk);  // must not crash; result value is free
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Values(1, 2, 3, 4));

class WireMutationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireMutationTest, BitFlippedMessagesNeverCrash) {
  Rng rng(GetParam());
  const auto wire = encode_message(sample_response());
  for (int trial = 0; trial < 500; ++trial) {
    auto mutated = wire;
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    (void)decode_message(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireMutationTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(WireTest, DecodeNameStandalone) {
  const auto wire = encode_message(sample_response());
  std::size_t offset = 12;
  const auto name = decode_name(wire, offset);
  ASSERT_TRUE(name);
  EXPECT_EQ(name->text(), "www.example.com");
  EXPECT_GT(offset, 12u);
}

}  // namespace
}  // namespace dnsnoise
