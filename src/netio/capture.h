// DNS capture pipeline: raw frames <-> tap events.
//
// The paper's vantage (Section III-A) sees two streams of DNS *responses*:
//   below — RDNS server -> client (stub resolver),
//   above — authoritative server -> RDNS server.
// CaptureDecoder reproduces that vantage from a pcap: it accepts frames,
// keeps only DNS responses on port 53, and classifies each by whether the
// source or the destination address belongs to the monitored RDNS
// cluster.  Client addresses are anonymized to stable opaque IDs, as in
// the fpDNS dataset.  It is a tap producer (resolver/tap.h), like
// RdnsCluster: observers receive the same batched TapEvents either way.
// PcapTapWriter is the way back, a tap observer that writes each event as
// a frame.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dns/message.h"
#include "dns/name_table.h"
#include "netio/packet.h"
#include "netio/pcap.h"
#include "resolver/tap.h"
#include "util/sim_time.h"

namespace dnsnoise {

/// Decodes frames into batched tap events.
class CaptureDecoder {
 public:
  /// `resolver_ips`: addresses of the RDNS cluster; `anonymization_salt`
  /// keys the client-ID hash (same salt => same IDs across runs).
  explicit CaptureDecoder(std::vector<Ipv4> resolver_ips,
                          std::uint64_t anonymization_salt = 0x5eedULL);

  /// Tap observation, as on RdnsCluster (resolver/tap.h's contract).
  /// decode_pcap() flushes at the end of a file; callers of decode() and
  /// add_response() call flush_taps() themselves.
  void add_tap_observer(TapObserver* observer) { taps_.add_observer(observer); }
  void remove_tap_observer(TapObserver* observer) {
    taps_.remove_observer(observer);
  }
  void flush_taps() { taps_.flush(); }

  /// Decodes one frame and passes a DNS response touching the cluster on
  /// port 53 to add_response().  Returns whether it was accepted; anything
  /// else counts in dropped().
  bool decode(SimTime ts, std::span<const std::uint8_t> frame);

  /// Runs a whole pcap buffer through decode(), in file order, then
  /// flushes.  Returns the number of responses accepted.
  std::size_t decode_pcap(std::span<const std::uint8_t> pcap_bytes);

  /// Turns one response into one tap event plus its compact answers,
  /// interned into names().  A response without exactly one question is
  /// dropped and counted in dropped().  While no observer is attached an
  /// accepted response is only counted: nothing is interned or buffered.
  bool add_response(SimTime ts, TapDirection direction,
                    std::uint64_t client_id, const DnsMessage& response);

  /// The table of every delivered id; ids keep their meaning for the
  /// decoder's lifetime.
  const NameTable& names() const noexcept { return *names_; }

  /// Frames or responses that failed any parse/filter stage.
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t accepted() const noexcept { return accepted_; }

 private:
  std::unordered_set<std::uint32_t> resolver_ips_;
  std::uint64_t salt_;
  std::uint64_t dropped_ = 0;
  std::uint64_t accepted_ = 0;
  // Behind a pointer so the tap buffer's view of it survives a move.
  std::unique_ptr<NameTable> names_ = std::make_unique<NameTable>();
  std::vector<CompactRecord> answers_;  // one response's answers, reused
  TapBuffer taps_{*names_};

  bool is_resolver(const Endpoint& ep) const noexcept;
};

/// Writes each tap event as the DNS response frame a tap at the resolver
/// would capture: below events go from the resolver to the client's
/// address, above events from a fixed authority to the resolver.  Each
/// distinct client id gets its own address in 10.0.0.0/8, in order of
/// first sight from 10.0.0.1 up (skipping the resolver's), so a
/// CaptureDecoder on the same resolver address reads the same events
/// back with one anonymized id per client.
class PcapTapWriter final : public TapObserver {
 public:
  /// `writer` must outlive this observer.
  PcapTapWriter(PcapWriter& writer, Ipv4 resolver_ip);

  /// Throws std::length_error on a client past the 2^24 - 2 addresses
  /// rather than give two clients one address.
  void on_tap_batch(const TapBatch& batch) override;

 private:
  Ipv4 client_address(std::uint64_t client_id);

  PcapWriter& writer_;
  Ipv4 resolver_ip_;
  std::uint16_t txid_ = 0;
  std::unordered_map<std::uint64_t, Ipv4> clients_;
  // The address the next new client gets; clients start at 10.0.0.1.
  std::uint32_t next_client_ = Ipv4::from_octets(10, 0, 0, 1).value;
};

/// Builds the Ethernet/IPv4/UDP frame carrying `msg` as a DNS response from
/// `src` to `dst` (the counterpart of CaptureDecoder::decode).
std::vector<std::uint8_t> build_dns_frame(Ipv4 src_ip, std::uint16_t src_port,
                                          Ipv4 dst_ip, std::uint16_t dst_port,
                                          const DnsMessage& msg);

}  // namespace dnsnoise
