#include "netio/capture.h"

#include <stdexcept>

#include "dns/wire.h"
#include "util/rng.h"

namespace dnsnoise {

namespace {
constexpr std::uint16_t kDnsPort = 53;
constexpr Ipv4 kAuthorityIp = Ipv4::from_octets(198, 51, 100, 1);
// The last client address; the writer's clients start at 10.0.0.1.
constexpr std::uint32_t kLastClient =
    Ipv4::from_octets(10, 255, 255, 254).value;
}  // namespace

CaptureDecoder::CaptureDecoder(std::vector<Ipv4> resolver_ips,
                               std::uint64_t anonymization_salt)
    : salt_(anonymization_salt) {
  for (const Ipv4 ip : resolver_ips) resolver_ips_.insert(ip.value);
}

bool CaptureDecoder::is_resolver(const Endpoint& ep) const noexcept {
  return !ep.is_v6 && resolver_ips_.contains(ep.v4.value);
}

bool CaptureDecoder::decode(SimTime ts, std::span<const std::uint8_t> frame) {
  const auto pkt = parse_frame(frame);
  // DNS responses are sourced from port 53 (RDNS answering a stub, or an
  // authority answering the RDNS).
  if (!pkt || pkt->src.port != kDnsPort) {
    ++dropped_;
    return false;
  }
  const auto msg = decode_message(pkt->payload);
  if (!msg || !msg->header.qr) {
    ++dropped_;
    return false;
  }
  if (is_resolver(pkt->src)) {
    return add_response(ts, TapDirection::kBelow,
                        mix64(std::uint64_t{pkt->dst.v4.value} ^ salt_), *msg);
  }
  if (is_resolver(pkt->dst)) {
    return add_response(ts, TapDirection::kAbove, 0, *msg);
  }
  ++dropped_;
  return false;
}

bool CaptureDecoder::add_response(SimTime ts, TapDirection direction,
                                  std::uint64_t client_id,
                                  const DnsMessage& response) {
  if (response.questions.size() != 1) {
    ++dropped_;
    return false;
  }
  ++accepted_;
  if (!taps_.observed()) return true;
  answers_.clear();
  for (const ResourceRecord& rr : response.answers) {
    answers_.push_back(compact_record(*names_, rr.name.text(), rr.type,
                                      rr.ttl, rr.rdata));
  }
  const Question& question = response.questions.front();
  if (taps_.push(ts, direction, client_id,
                 names_->intern(question.name.text()), question.type,
                 response.header.rcode, answers_)) {
    taps_.flush();
  }
  return true;
}

std::size_t CaptureDecoder::decode_pcap(
    std::span<const std::uint8_t> pcap_bytes) {
  const std::uint64_t before = accepted_;
  PcapReader reader(pcap_bytes);
  while (auto record = reader.next_view()) {
    decode(static_cast<SimTime>(record->ts_sec), record->data);
  }
  taps_.flush();
  return accepted_ - before;
}

PcapTapWriter::PcapTapWriter(PcapWriter& writer, Ipv4 resolver_ip)
    : writer_(writer), resolver_ip_(resolver_ip) {}

Ipv4 PcapTapWriter::client_address(std::uint64_t client_id) {
  const auto known = clients_.find(client_id);
  if (known != clients_.end()) return known->second;
  if (next_client_ == resolver_ip_.value) ++next_client_;
  if (next_client_ > kLastClient) {
    throw std::length_error(
        "PcapTapWriter: more distinct clients than 10.0.0.0/8 addresses");
  }
  const Ipv4 address{next_client_++};
  clients_.emplace(client_id, address);
  return address;
}

void PcapTapWriter::on_tap_batch(const TapBatch& batch) {
  for (const TapEvent& event : batch) {
    std::vector<ResourceRecord> answers;
    to_resource_records(batch.answers(event), batch.names(), answers);
    const DnsMessage msg = DnsMessage::make_response(
        DnsMessage::make_query(++txid_, DomainName(batch.qname(event)),
                               event.qtype),
        event.rcode, std::move(answers));
    const auto ts = static_cast<std::uint32_t>(event.ts);
    if (event.direction == TapDirection::kBelow) {
      writer_.write(ts, 0,
                    build_dns_frame(resolver_ip_, kDnsPort,
                                    client_address(event.client_id), 40000,
                                    msg));
    } else {
      writer_.write(ts, 0, build_dns_frame(kAuthorityIp, kDnsPort,
                                           resolver_ip_, 5353, msg));
    }
  }
}

std::vector<std::uint8_t> build_dns_frame(Ipv4 src_ip, std::uint16_t src_port,
                                          Ipv4 dst_ip, std::uint16_t dst_port,
                                          const DnsMessage& msg) {
  const std::vector<std::uint8_t> payload = encode_message(msg);
  return build_udp4_frame(src_ip, src_port, dst_ip, dst_port, payload);
}

}  // namespace dnsnoise
