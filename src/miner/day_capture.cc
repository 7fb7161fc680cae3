#include "miner/day_capture.h"

#include "workload/scenario.h"

namespace dnsnoise {

DayCapture::DayCapture(const DayCaptureConfig& config)
    : config_(config),
      names_(std::make_unique<NameTable>()),
      tree_(*names_),
      chr_(*names_) {}

void DayCapture::attach(RdnsCluster& cluster) {
  remap_.release();
  cluster.add_tap_observer(this);
}

void DayCapture::detach(RdnsCluster& cluster) {
  cluster.remove_tap_observer(this);
  remap_.release();
}

NameId DayCapture::name_id(NameId id, const NameTable& names) {
  NameId& mapped = remap_[id];
  if (mapped == kInvalidNameId || !tree_.is_name(mapped)) {
    mapped = tree_.intern(names.name(id), names.name_hash(id));
  }
  return mapped;
}

NameId DayCapture::text_id(NameId id, const NameTable& names) {
  NameId& mapped = remap_[id];
  if (mapped == kInvalidNameId) {
    mapped = names_->intern(names.name(id), names.name_hash(id));
  }
  return mapped;
}

void DayCapture::add_name(NameId id, std::uint8_t set) {
  if (id >= seen_.size()) seen_.resize(names_->size());
  if ((seen_[id] & set) != 0) return;
  seen_[id] |= set;
  (set == kQueried ? queried_ : resolved_).push_back(id);
}

namespace {

void bump(HourlySeries& series, SimTime ts, std::uint64_t units, bool nx,
          std::string_view qname) {
  const auto hour = static_cast<std::size_t>(hour_of_day(ts));
  series.total[hour] += units;
  if (nx) series.nxdomain[hour] += units;
  if (Scenario::is_google_name(qname)) series.google[hour] += units;
  if (Scenario::is_akamai_name(qname)) series.akamai[hour] += units;
}

}  // namespace

void DayCapture::on_tap_batch(const TapBatch& batch) {
  const NameTable& names = batch.names();
  remap_.follow(names);
  for (const TapEvent& event : batch) {
    const bool below = event.direction == TapDirection::kBelow;
    const std::span<const CompactRecord> answers = batch.answers(event);
    const std::string_view qname = names.name(event.qname);
    const bool nx = event.rcode != RCode::NoError;
    const std::uint64_t units =
        nx || answers.empty() ? 1
                              : static_cast<std::uint64_t>(answers.size());
    bump(below ? below_ : above_, event.ts, units, nx, qname);
    if (below) add_name(name_id(event.qname, names), kQueried);
    if (config_.keep_fpdns) {
      fpdns_.add_response(event.ts, event.client_id,
                          below ? FpDirection::kBelow : FpDirection::kAbove,
                          names, event.qname, event.qtype, event.rcode,
                          answers);
    }
    if (nx) continue;
    for (const CompactRecord& rr : answers) {
      CompactRecord key = rr;
      key.owner = name_id(rr.owner, names);
      if (rr.form == RdataForm::kText) key.set_text(text_id(rr.text(), names));
      if (!below) {
        chr_.record_above(key);
        continue;
      }
      // The tree and the resolved set depend only on the set of RRs seen
      // below, so only an RR's first below sighting can change them.
      if (chr_.record_below(key)) {
        tree_.insert(key.owner);
        add_name(key.owner, kResolved);
      }
    }
  }
}

void DayCapture::start_day(std::int64_t /*day_index*/) {
  names_ = std::make_unique<NameTable>();
  tree_ = DomainNameTree(*names_);
  chr_ = CacheHitRateTracker(*names_);
  below_ = HourlySeries();
  above_ = HourlySeries();
  seen_ = {};
  queried_ = {};
  resolved_ = {};
  remap_.release();
  fpdns_.clear();
}

void DayCapture::reserve(std::size_t names, std::size_t rrs,
                         std::size_t queried, std::size_t resolved) {
  names_->reserve(names);
  tree_.reserve(names);
  chr_.reserve(rrs, names);
  seen_.reserve(names);
  queried_.reserve(queried);
  resolved_.reserve(resolved);
}

void DayCapture::merge_from(const DayCapture& other,
                            const ParallelFor& parallel_for) {
  const std::vector<NameId> remap = names_->intern_all(*other.names_);
  // The table is complete here: the parts below read it and each writes
  // only its own structure.
  run_parallel(parallel_for, 3, [&](std::size_t part) {
    if (part == 0) {
      tree_.merge_from(other.tree_, remap);
    } else if (part == 1) {
      chr_.merge_from(other.chr_, remap);
    } else {
      below_ += other.below_;
      above_ += other.above_;
      for (const NameId id : other.queried_) add_name(remap[id], kQueried);
      for (const NameId id : other.resolved_) add_name(remap[id], kResolved);
      fpdns_.append(other.fpdns_);
    }
  });
}

void DayCapture::merge_from(DayCapture&& other,
                            const ParallelFor& parallel_for) {
  // Every tap event bumps an hourly series, and a merge adds them, so a
  // capture with empty series holds nothing but the root.
  if (below_.sum_total() != 0 || above_.sum_total() != 0) {
    merge_from(other, parallel_for);
    other = DayCapture();
    return;
  }
  const DayCaptureConfig config = config_;
  *this = std::move(other);
  config_ = config;
  remap_.release();
  other = DayCapture();
}

}  // namespace dnsnoise
