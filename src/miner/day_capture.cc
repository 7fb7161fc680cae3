#include "miner/day_capture.h"

#include "workload/scenario.h"

namespace dnsnoise {

DayCapture::DayCapture(const DayCaptureConfig& config) : config_(config) {}

void DayCapture::attach(RdnsCluster& cluster) { cluster.add_tap_observer(this); }

void DayCapture::detach(RdnsCluster& cluster) {
  cluster.remove_tap_observer(this);
}

void DayCapture::on_tap_batch(const TapBatch& batch) {
  for (const TapEvent& event : batch) {
    if (event.direction == TapDirection::kBelow) {
      on_below(event.ts, event.client_id, event.question, event.rcode,
               batch.answers(event));
    } else {
      on_above(event.ts, event.question, event.rcode, batch.answers(event));
    }
  }
}

void DayCapture::start_day(std::int64_t day_index) {
  config_.day_index = day_index;
  tree_ = DomainNameTree();
  chr_ = CacheHitRateTracker();
  below_ = HourlySeries();
  above_ = HourlySeries();
  queried_ = NameTable();
  resolved_ = NameTable();
  fpdns_.clear();
}

namespace {

/// Interns every name of `from` into `into` in id order, reusing the
/// stored hashes.
void merge_names(NameTable& into, const NameTable& from) {
  for (NameId id = 0; id < from.size(); ++id) {
    into.intern(from.name(id), from.name_hash(id));
  }
}

}  // namespace

void DayCapture::merge_from(const DayCapture& other) {
  tree_.merge_from(other.tree_);
  chr_.merge_from(other.chr_);
  below_ += other.below_;
  above_ += other.above_;
  merge_names(queried_, other.queried_);
  merge_names(resolved_, other.resolved_);
  fpdns_.append(other.fpdns_);
  rpdns_.merge_from(other.rpdns_);
}

void DayCapture::bump(HourlySeries& series, SimTime ts, std::uint64_t units,
                      bool nx, const DomainName& qname) {
  const auto hour = static_cast<std::size_t>(hour_of_day(ts));
  series.total[hour] += units;
  if (nx) series.nxdomain[hour] += units;
  if (Scenario::is_google_name(qname)) series.google[hour] += units;
  if (Scenario::is_akamai_name(qname)) series.akamai[hour] += units;
}

void DayCapture::on_below(SimTime ts, std::uint64_t client_id,
                          const Question& question, RCode rcode,
                          std::span<const ResourceRecord> answers) {
  const bool nx = rcode != RCode::NoError;
  const std::uint64_t units = nx || answers.empty()
                                  ? 1
                                  : static_cast<std::uint64_t>(answers.size());
  bump(below_, ts, units, nx, question.name);
  queried_.intern(question.name.text());
  if (config_.keep_fpdns) {
    fpdns_.add_response(ts, client_id, FpDirection::kBelow, question, rcode,
                        answers);
  }
  if (nx) return;
  for (const ResourceRecord& rr : answers) {
    // The tree and the resolved set depend only on the set of RRs seen
    // below, so only an RR's first below sighting can change them.
    if (chr_.record_below(rr.name.text(), rr.type, rr.rdata, rr.ttl)) {
      tree_.insert(rr.name);
      resolved_.intern(rr.name.text());
    }
    if (config_.feed_rpdns) {
      rpdns_.add(RRKey(rr), config_.day_index);
    }
  }
}

void DayCapture::on_above(SimTime ts, const Question& question, RCode rcode,
                          std::span<const ResourceRecord> answers) {
  const bool nx = rcode != RCode::NoError;
  const std::uint64_t units = nx || answers.empty()
                                  ? 1
                                  : static_cast<std::uint64_t>(answers.size());
  bump(above_, ts, units, nx, question.name);
  if (config_.keep_fpdns) {
    fpdns_.add_response(ts, 0, FpDirection::kAbove, question, rcode, answers);
  }
  if (nx) return;
  for (const ResourceRecord& rr : answers) {
    chr_.record_above(rr.name.text(), rr.type, rr.rdata, rr.ttl);
  }
}

}  // namespace dnsnoise
