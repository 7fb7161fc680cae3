// Classic libpcap file format (.pcap) reader and writer.
//
// The paper's monitoring point records DNS response packets above and below
// the RDNS cluster.  Our traffic generator can materialize its synthetic
// streams as genuine pcap bytes, and the capture pipeline parses them back
// at high throughput — preserving the paper's real ingestion path even
// though the bytes are synthetic (see DESIGN.md §2).
//
// Supported: both magic byte orders, microsecond and nanosecond timestamp
// variants, LINKTYPE_ETHERNET.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace dnsnoise {

/// One captured frame: timestamp plus link-layer bytes.
struct PcapRecord {
  std::uint32_t ts_sec = 0;
  std::uint32_t ts_nsec = 0;  // always normalized to nanoseconds
  std::vector<std::uint8_t> data;
};

/// Serializes records into an in-memory pcap byte stream.
class PcapWriter {
 public:
  /// snaplen: capture length advertised in the global header.
  explicit PcapWriter(bool nanosecond = false, std::uint32_t snaplen = 65535);

  /// Appends one frame (copies `frame` into the stream).
  void write(std::uint32_t ts_sec, std::uint32_t ts_nsec,
             std::span<const std::uint8_t> frame);

  /// The bytes written so far (global header included).
  const std::vector<std::uint8_t>& bytes() const noexcept { return buffer_; }

  /// Writes the stream to a file.  Throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;

  std::size_t packet_count() const noexcept { return packet_count_; }

 private:
  bool nanosecond_;
  std::vector<std::uint8_t> buffer_;
  std::size_t packet_count_ = 0;
};

/// Parses an in-memory pcap byte stream.  Construction fails (throws
/// std::invalid_argument) on a bad global header; per-record truncation
/// terminates iteration.
class PcapReader {
 public:
  explicit PcapReader(std::span<const std::uint8_t> bytes);

  /// Loads a pcap file fully into memory (read_file: a path that is not a
  /// readable regular file throws std::runtime_error).
  static std::vector<std::uint8_t> load_file(const std::string& path);

  bool nanosecond() const noexcept { return nanosecond_; }
  bool swapped() const noexcept { return swapped_; }
  std::uint32_t link_type() const noexcept { return link_type_; }

  /// Reads the next record; std::nullopt at end of stream or on a truncated
  /// record.  The returned record's data is copied out of the buffer.
  std::optional<PcapRecord> next();

  /// Zero-copy variant: views into the underlying buffer, valid as long as
  /// the buffer passed to the constructor outlives the reader.  This is the
  /// high-throughput path used by the capture pipeline.
  struct RecordView {
    std::uint32_t ts_sec = 0;
    std::uint32_t ts_nsec = 0;
    std::span<const std::uint8_t> data;
  };
  std::optional<RecordView> next_view();

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
  bool swapped_ = false;
  bool nanosecond_ = false;
  std::uint32_t link_type_ = 0;

  std::uint32_t read_u32(std::size_t at) const noexcept;
};

}  // namespace dnsnoise
