#include "pdns/fpdns.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/file.h"

namespace dnsnoise {

namespace {

constexpr char kMagic[4] = {'F', 'P', 'D', '1'};

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    require(1);
    return bytes_[pos_++];
  }

  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= std::uint32_t{bytes_[pos_ + static_cast<std::size_t>(i)]}
           << (i * 8);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= std::uint64_t{bytes_[pos_ + static_cast<std::size_t>(i)]}
           << (i * 8);
    pos_ += 8;
    return v;
  }

  std::string str() {
    const std::uint32_t len = u32();
    require(len);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  void expect_magic() {
    require(4);
    if (std::memcmp(bytes_.data() + pos_, kMagic, 4) != 0) {
      throw std::invalid_argument("FpDnsDataset: bad magic");
    }
    pos_ += 4;
  }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > bytes_.size()) {
      throw std::invalid_argument("FpDnsDataset: truncated input");
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

void FpDnsDataset::add_response(SimTime ts, std::uint64_t client_id,
                                FpDirection direction, const NameTable& names,
                                NameId qname, RRType qtype, RCode rcode,
                                std::span<const CompactRecord> answers) {
  if (rcode != RCode::NoError || answers.empty()) {
    FpDnsEntry entry;
    entry.ts = ts;
    entry.client_id = client_id;
    entry.direction = direction;
    entry.rcode = rcode;
    entry.qname = names.name(qname);
    entry.qtype = qtype;
    entries_.push_back(std::move(entry));
    return;
  }
  for (const CompactRecord& rr : answers) {
    FpDnsEntry entry;
    entry.ts = ts;
    entry.client_id = client_id;
    entry.direction = direction;
    entry.rcode = rcode;
    entry.qname = names.name(rr.owner);
    entry.qtype = rr.type;
    entry.ttl = rr.ttl;
    append_rdata_text(entry.rdata, rr, names);
    entries_.push_back(std::move(entry));
  }
}

void FpDnsDataset::stable_sort_by_time() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const FpDnsEntry& a, const FpDnsEntry& b) {
                     return a.ts < b.ts;
                   });
}

std::vector<std::uint8_t> FpDnsDataset::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(32 + entries_.size() * 48);
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  put_u64(out, entries_.size());
  for (const FpDnsEntry& e : entries_) {
    put_u64(out, static_cast<std::uint64_t>(e.ts));
    put_u64(out, e.client_id);
    out.push_back(static_cast<std::uint8_t>(e.direction));
    out.push_back(static_cast<std::uint8_t>(e.rcode));
    put_u32(out, static_cast<std::uint32_t>(e.qtype));
    put_u32(out, e.ttl);
    put_string(out, e.qname);
    put_string(out, e.rdata);
  }
  return out;
}

FpDnsDataset FpDnsDataset::deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  reader.expect_magic();
  const std::uint64_t count = reader.u64();
  // Each entry takes at least 34 bytes (two u64, two u8, two u32 and two
  // string lengths); a count the input cannot hold is truncated input,
  // refused before it sizes the reserve below.
  constexpr std::uint64_t kMinEntryBytes = 34;
  if (count > reader.remaining() / kMinEntryBytes) {
    throw std::invalid_argument("FpDnsDataset: truncated input");
  }
  FpDnsDataset dataset;
  dataset.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    FpDnsEntry e;
    e.ts = static_cast<SimTime>(reader.u64());
    e.client_id = reader.u64();
    e.direction = static_cast<FpDirection>(reader.u8());
    e.rcode = static_cast<RCode>(reader.u8());
    e.qtype = static_cast<RRType>(reader.u32());
    e.ttl = reader.u32();
    e.qname = reader.str();
    e.rdata = reader.str();
    dataset.add(std::move(e));
  }
  return dataset;
}

void FpDnsDataset::save(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("FpDnsDataset: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("FpDnsDataset: write failed " + path);
}

FpDnsDataset FpDnsDataset::load(const std::string& path) {
  return deserialize(read_file(path));
}

}  // namespace dnsnoise
