// Test helper: feeds hand-written responses to a tap observer, one event
// per batch, through CaptureDecoder::add_response.
#pragma once

#include <vector>

#include "netio/capture.h"

namespace dnsnoise {

class TapFeed {
 public:
  explicit TapFeed(TapObserver& observer) {
    decoder_.add_tap_observer(&observer);
  }

  void below(SimTime ts, std::uint64_t client_id, const char* qname,
             RCode rcode, std::vector<ResourceRecord> answers = {}) {
    feed(ts, TapDirection::kBelow, client_id, qname, rcode, answers);
  }
  void above(SimTime ts, const char* qname, RCode rcode,
             std::vector<ResourceRecord> answers = {}) {
    feed(ts, TapDirection::kAbove, 0, qname, rcode, answers);
  }

 private:
  void feed(SimTime ts, TapDirection direction, std::uint64_t client_id,
            const char* qname, RCode rcode,
            std::vector<ResourceRecord>& answers) {
    const auto query = DnsMessage::make_query(0, DomainName(qname), RRType::A);
    decoder_.add_response(
        ts, direction, client_id,
        DnsMessage::make_response(query, rcode, std::move(answers)));
    decoder_.flush_taps();
  }

  CaptureDecoder decoder_{{}};
};

}  // namespace dnsnoise
