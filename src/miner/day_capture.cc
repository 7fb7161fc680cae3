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
  TapIdRemap::Entry& entry = remap_[id];
  if ((entry.facts & kTreeName) == 0) {
    entry.id = tree_.intern(names.name(id), names.name_hash(id));
    entry.facts |= kTreeName;
  }
  return entry.id;
}

NameId DayCapture::text_id(NameId id, const NameTable& names) {
  TapIdRemap::Entry& entry = remap_[id];
  if (entry.id == kInvalidNameId) {
    entry.id = names_->intern(names.name(id), names.name_hash(id));
  }
  return entry.id;
}

void DayCapture::add_name(NameId id, std::uint8_t set) {
  if (id >= seen_.size()) seen_.resize(names_->size());
  if ((seen_[id] & set) != 0) return;
  seen_[id] |= set;
  (set == kQueried ? queried_ : resolved_).push_back(id);
}

void DayCapture::on_tap_batch(const TapBatch& batch) {
  const NameTable& names = batch.names();
  remap_.follow(names);
  for (const TapEvent& event : batch) {
    const bool below = event.direction == TapDirection::kBelow;
    const std::span<const CompactRecord> answers = batch.answers(event);
    const bool nx = event.rcode != RCode::NoError;
    const std::uint64_t units =
        nx || answers.empty() ? 1
                              : static_cast<std::uint64_t>(answers.size());
    // The qname's facts are decided from its text on its first event; a
    // repeated event reads them with its id.
    TapIdRemap::Entry& qname = remap_[event.qname];
    if ((qname.facts & kClassed) == 0) {
      const std::string_view text = names.name(event.qname);
      qname.facts |= kClassed;
      if (Scenario::is_google_name(text)) qname.facts |= kGoogle;
      if (Scenario::is_akamai_name(text)) qname.facts |= kAkamai;
    }
    HourlySeries& series = below ? below_ : above_;
    const auto hour = static_cast<std::size_t>(hour_of_day(event.ts));
    series.total[hour] += units;
    if (nx) series.nxdomain[hour] += units;
    if ((qname.facts & kGoogle) != 0) series.google[hour] += units;
    if ((qname.facts & kAkamai) != 0) series.akamai[hour] += units;
    if (below && (qname.facts & kListed) == 0) {
      add_name(name_id(event.qname, names), kQueried);
      qname.facts |= kListed;
    }
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
      // The capture interned with the producer's stored hashes, so the
      // producer's record hashes as the key does.
      const std::uint64_t hash = rr_hash(rr, names);
      if (!below) {
        chr_.record_above(key, hash);
        continue;
      }
      // The tree and the resolved set depend only on the set of RRs seen
      // below, so only an RR's first below sighting can change them.
      if (chr_.record_below(key, hash)) {
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
