#include "netio/pcap.h"

#include <fstream>
#include <stdexcept>

#include "util/file.h"

namespace dnsnoise {

namespace {

constexpr std::uint32_t kMagicUsec = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNsec = 0xa1b23c4d;
constexpr std::uint32_t kMagicUsecSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNsecSwapped = 0x4d3cb2a1;
constexpr std::uint32_t kLinkTypeEthernet = 1;
constexpr std::size_t kGlobalHeaderSize = 24;
constexpr std::size_t kRecordHeaderSize = 16;

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u16le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

constexpr std::uint32_t bswap32(std::uint32_t v) noexcept {
  return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
         ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

}  // namespace

PcapWriter::PcapWriter(bool nanosecond, std::uint32_t snaplen)
    : nanosecond_(nanosecond) {
  put_u32le(buffer_, nanosecond_ ? kMagicNsec : kMagicUsec);
  put_u16le(buffer_, 2);  // version major
  put_u16le(buffer_, 4);  // version minor
  put_u32le(buffer_, 0);  // thiszone
  put_u32le(buffer_, 0);  // sigfigs
  put_u32le(buffer_, snaplen);
  put_u32le(buffer_, kLinkTypeEthernet);
}

void PcapWriter::write(std::uint32_t ts_sec, std::uint32_t ts_nsec,
                       std::span<const std::uint8_t> frame) {
  put_u32le(buffer_, ts_sec);
  put_u32le(buffer_, nanosecond_ ? ts_nsec : ts_nsec / 1000);
  put_u32le(buffer_, static_cast<std::uint32_t>(frame.size()));
  put_u32le(buffer_, static_cast<std::uint32_t>(frame.size()));
  buffer_.insert(buffer_.end(), frame.begin(), frame.end());
  ++packet_count_;
}

void PcapWriter::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("PcapWriter: cannot open " + path);
  out.write(reinterpret_cast<const char*>(buffer_.data()),
            static_cast<std::streamsize>(buffer_.size()));
  if (!out) throw std::runtime_error("PcapWriter: write failed for " + path);
}

PcapReader::PcapReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {
  if (bytes_.size() < kGlobalHeaderSize) {
    throw std::invalid_argument("PcapReader: truncated global header");
  }
  const std::uint32_t magic = read_u32(0);
  switch (magic) {
    case kMagicUsec: break;
    case kMagicNsec: nanosecond_ = true; break;
    case kMagicUsecSwapped: swapped_ = true; break;
    case kMagicNsecSwapped:
      swapped_ = true;
      nanosecond_ = true;
      break;
    default:
      throw std::invalid_argument("PcapReader: bad magic");
  }
  link_type_ = read_u32(20);
  if (swapped_) link_type_ = bswap32(link_type_);
  offset_ = kGlobalHeaderSize;
}

std::uint32_t PcapReader::read_u32(std::size_t at) const noexcept {
  // pcap headers are written in the producer's native order; we read
  // little-endian and swap when the magic says so.
  return std::uint32_t{bytes_[at]} | (std::uint32_t{bytes_[at + 1]} << 8) |
         (std::uint32_t{bytes_[at + 2]} << 16) |
         (std::uint32_t{bytes_[at + 3]} << 24);
}

std::optional<PcapReader::RecordView> PcapReader::next_view() {
  if (offset_ + kRecordHeaderSize > bytes_.size()) return std::nullopt;
  std::uint32_t ts_sec = read_u32(offset_);
  std::uint32_t ts_frac = read_u32(offset_ + 4);
  std::uint32_t incl_len = read_u32(offset_ + 8);
  if (swapped_) {
    ts_sec = bswap32(ts_sec);
    ts_frac = bswap32(ts_frac);
    incl_len = bswap32(incl_len);
  }
  const std::size_t data_start = offset_ + kRecordHeaderSize;
  if (data_start + incl_len > bytes_.size()) return std::nullopt;  // truncated
  offset_ = data_start + incl_len;
  return RecordView{ts_sec, nanosecond_ ? ts_frac : ts_frac * 1000,
                    bytes_.subspan(data_start, incl_len)};
}

std::optional<PcapRecord> PcapReader::next() {
  auto view = next_view();
  if (!view) return std::nullopt;
  return PcapRecord{view->ts_sec, view->ts_nsec,
                    std::vector<std::uint8_t>(view->data.begin(),
                                              view->data.end())};
}

std::vector<std::uint8_t> PcapReader::load_file(const std::string& path) {
  return read_file(path);
}

}  // namespace dnsnoise
