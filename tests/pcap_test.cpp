#include "netio/pcap.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "util/file.h"
#include "util/rng.h"

namespace dnsnoise {
namespace {

std::vector<std::uint8_t> random_frame(Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> frame(size);
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
  return frame;
}

TEST(PcapTest, RoundTripMicroseconds) {
  Rng rng(1);
  PcapWriter writer(/*nanosecond=*/false);
  const auto f1 = random_frame(rng, 64);
  const auto f2 = random_frame(rng, 1200);
  writer.write(100, 5000, f1);
  writer.write(101, 999'999'000, f2);
  EXPECT_EQ(writer.packet_count(), 2u);

  PcapReader reader(writer.bytes());
  EXPECT_FALSE(reader.nanosecond());
  EXPECT_FALSE(reader.swapped());
  EXPECT_EQ(reader.link_type(), 1u);  // Ethernet

  auto r1 = reader.next();
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1->ts_sec, 100u);
  EXPECT_EQ(r1->ts_nsec, 5000u);  // microsecond file: 5us -> 5000ns
  EXPECT_EQ(r1->data, f1);

  auto r2 = reader.next();
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2->ts_sec, 101u);
  EXPECT_EQ(r2->data, f2);

  EXPECT_FALSE(reader.next());
}

TEST(PcapTest, RoundTripNanoseconds) {
  Rng rng(2);
  PcapWriter writer(/*nanosecond=*/true);
  const auto frame = random_frame(rng, 80);
  writer.write(7, 123'456'789, frame);
  PcapReader reader(writer.bytes());
  EXPECT_TRUE(reader.nanosecond());
  auto record = reader.next();
  ASSERT_TRUE(record);
  EXPECT_EQ(record->ts_nsec, 123'456'789u);
}

TEST(PcapTest, MicrosecondPrecisionTruncates) {
  PcapWriter writer(false);
  writer.write(1, 1234, std::vector<std::uint8_t>{0xab});
  PcapReader reader(writer.bytes());
  auto record = reader.next();
  ASSERT_TRUE(record);
  EXPECT_EQ(record->ts_nsec, 1000u);  // 1234ns -> 1us -> back to 1000ns
}

TEST(PcapTest, EmptyStreamIteration) {
  const PcapWriter writer;
  PcapReader reader(writer.bytes());
  EXPECT_FALSE(reader.next());
}

TEST(PcapTest, BadMagicThrows) {
  std::vector<std::uint8_t> junk(24, 0x42);
  EXPECT_THROW(PcapReader{junk}, std::invalid_argument);
}

TEST(PcapTest, TruncatedGlobalHeaderThrows) {
  const std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_THROW(PcapReader{tiny}, std::invalid_argument);
}

TEST(PcapTest, TruncatedRecordStopsIteration) {
  Rng rng(3);
  PcapWriter writer;
  writer.write(1, 0, random_frame(rng, 100));
  auto bytes = writer.bytes();
  bytes.resize(bytes.size() - 10);  // chop the last frame's tail
  PcapReader reader(bytes);
  EXPECT_FALSE(reader.next());
}

TEST(PcapTest, SwappedEndianness) {
  // Hand-build a big-endian (swapped relative to us) header + one record.
  auto put_be = [](std::vector<std::uint8_t>& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v >> 24));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
  };
  std::vector<std::uint8_t> bytes;
  put_be(bytes, 0xa1b2c3d4);  // reads as swapped magic on LE readers
  put_be(bytes, 0x00020004);
  put_be(bytes, 0);
  put_be(bytes, 0);
  put_be(bytes, 65535);
  put_be(bytes, 1);
  put_be(bytes, 42);   // ts_sec
  put_be(bytes, 10);   // ts_usec
  put_be(bytes, 3);    // incl_len
  put_be(bytes, 3);    // orig_len
  bytes.push_back(0xaa);
  bytes.push_back(0xbb);
  bytes.push_back(0xcc);
  PcapReader reader(bytes);
  EXPECT_TRUE(reader.swapped());
  auto record = reader.next();
  ASSERT_TRUE(record);
  EXPECT_EQ(record->ts_sec, 42u);
  EXPECT_EQ(record->data.size(), 3u);
}

TEST(PcapTest, SaveAndLoadFile) {
  Rng rng(4);
  PcapWriter writer;
  const auto frame = random_frame(rng, 60);
  writer.write(9, 0, frame);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnsnoise_pcap_test.pcap")
          .string();
  writer.save(path);
  const auto bytes = PcapReader::load_file(path);
  EXPECT_EQ(bytes, writer.bytes());
  PcapReader reader(bytes);
  auto record = reader.next();
  ASSERT_TRUE(record);
  EXPECT_EQ(record->data, frame);
  std::remove(path.c_str());
}

TEST(PcapTest, LoadMissingFileThrows) {
  EXPECT_THROW(PcapReader::load_file("/no/such/file.pcap"),
               std::runtime_error);
}

TEST(PcapTest, LoadDirectoryThrows) {
  // A directory opens as a stream whose reported size is huge: it must be
  // refused like any other unreadable input, not sized into bad_alloc.
  const std::filesystem::path dir = ::testing::TempDir();
  EXPECT_THROW(PcapReader::load_file(dir.string()), std::runtime_error);
}

TEST(PcapTest, ReadFileReadsRegularFilesOnly) {
  const std::filesystem::path dir = ::testing::TempDir();
  EXPECT_THROW(read_file(dir.string()), std::runtime_error);
  EXPECT_THROW(read_file("/no/such/file"), std::runtime_error);
  const std::string path = (dir / "dnsnoise_read_file_test.bin").string();
  PcapWriter writer;
  writer.save(path);
  EXPECT_EQ(read_file(path), writer.bytes());
  std::remove(path.c_str());
}

TEST(PcapTest, ZeroCopyViewsMatchCopies) {
  Rng rng(5);
  PcapWriter writer;
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 20; ++i) {
    frames.push_back(random_frame(rng, 20 + rng.below(200)));
    writer.write(static_cast<std::uint32_t>(i), 0, frames.back());
  }
  PcapReader reader(writer.bytes());
  for (int i = 0; i < 20; ++i) {
    auto view = reader.next_view();
    ASSERT_TRUE(view);
    EXPECT_EQ(std::vector<std::uint8_t>(view->data.begin(), view->data.end()),
              frames[static_cast<std::size_t>(i)]);
  }
  EXPECT_FALSE(reader.next_view());
}

}  // namespace
}  // namespace dnsnoise
