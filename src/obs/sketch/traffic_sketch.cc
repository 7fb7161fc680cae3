#include "obs/sketch/traffic_sketch.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace dnsnoise::obs {

namespace {

/// Salt separating the client-id hash stream from the name-hash stream.
constexpr std::uint64_t kClientSalt = 0x9e3779b97f4a7c15ULL;

/// Live classification: does any label suffix of `name`, from the
/// registrable domain down to the full qname, match a mined zone?
/// Zero-copy — every candidate is an nld_view into the event's name.
bool in_disposable_zone(const DomainName& name, std::size_t suffix_labels,
                        const DisposableZoneSet& zones) {
  const std::size_t labels = name.label_count();
  if (labels == 0) return false;
  for (std::size_t n = std::min(suffix_labels + 1, labels); n <= labels;
       ++n) {
    if (zones.find(name.nld_view(n)) != zones.end()) return true;
  }
  return false;
}

}  // namespace

// --- TrafficSketch (one shard, single writer) -------------------------------

struct TrafficSketch::Accumulator {
  std::uint64_t queries = 0;
  std::uint64_t disposable = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t new_names = 0;
  HllSketch distinct_qnames;
  HllSketch distinct_clients;
  // Heavy-hitter union keyed by interned text — NameIds are table-scoped,
  // so the merge remaps through the string, never compares raw ids.
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> slds;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> qnames;
  std::map<SimTime, TrafficInterval> window;  // keyed by interval id
};

TrafficSketch::TrafficSketch(const TrafficSketchConfig& config)
    : config_(config),
      qname_heavy_(config.counters),
      sld_heavy_(config.counters) {
  window_.resize(config_.window_slots == 0 ? 1 : config_.window_slots);
}

void TrafficSketch::set_disposable_zones(
    std::shared_ptr<const DisposableZoneSet> zones) {
  const std::lock_guard lock(mutex_);
  zones_ = std::move(zones);
  // Cached verdicts were computed against the old zone set; clear the
  // kClassified bit and let count_event reclassify each name on next
  // sight.  O(distinct names), and zone swaps are a per-day event.
  for (NameState& state : names_) state.flags = 0;
}

TrafficSketch::LocalName TrafficSketch::intern_local(std::string_view text) {
  const std::size_t known_names = qnames_.size();
  const NameRef qname = qnames_.ref(text);
  if (qnames_.size() == known_names) return LocalName{qname.id, false};

  // First sight of this qname: do the per-distinct-name work once — PSL
  // walk, SLD intern, classifier verdict, HLL insert — and cache it.
  const DomainName parsed(text);
  const std::size_t suffix_labels = config_.psl->suffix_label_count(parsed);
  const std::string_view sld =
      parsed.nld_view(std::min(suffix_labels + 1, parsed.label_count()));
  const NameId sld_id = slds_.ref(sld).id;
  if (sld_id >= sld_delta_.size()) sld_delta_.resize(sld_id + 1, 0);

  NameState state;
  state.sld = sld_id;
  state.flags = kClassified;
  const DisposableZoneSet* const zones = zones_.get();
  if (zones != nullptr && !zones->empty() &&
      in_disposable_zone(parsed, suffix_labels, *zones)) {
    state.flags |= kDisposable;
  }
  names_.push_back(state);
  // mix64 over the stored FNV-1a hash: HLL register selection uses the
  // top bits, where FNV's avalanche is too weak.  Inserting per distinct
  // name instead of per event lands on identical registers — add_hash is
  // idempotent for a fixed hash.
  distinct_qnames_.add_hash(mix64(qname.hash));
  return LocalName{qname.id, true};
}

void TrafficSketch::classify(NameId id) {
  NameState& state = names_[id];
  state.flags = kClassified;
  const DisposableZoneSet* const zones = zones_.get();
  if (zones == nullptr || zones->empty()) return;
  const DomainName name{qnames_.name(id)};
  if (in_disposable_zone(name, config_.psl->suffix_label_count(name), *zones)) {
    state.flags |= kDisposable;
  }
}

void TrafficSketch::count_event(NameId id, bool fresh, std::uint64_t client,
                                bool nx, SimTime ts) {
  ++queries_;
  new_names_ += fresh ? 1 : 0;
  NameState& state = names_[id];
  if (state.delta++ == 0) qname_touched_.push_back(id);
  if ((state.flags & kClassified) == 0) classify(id);  // zones were swapped
  const bool disposable = (state.flags & kDisposable) != 0;
  disposable_ += disposable ? 1 : 0;
  nxdomain_ += nx ? 1 : 0;
  if (sld_delta_[state.sld]++ == 0) sld_touched_.push_back(state.sld);
  distinct_clients_.add_hash(mix64(client ^ kClientSalt));

  if (config_.interval_seconds > 0 && ts >= 0) {
    if (ts != memo_ts_) {
      memo_ts_ = ts;
      memo_interval_ = ts / config_.interval_seconds;
      memo_slot_ = static_cast<std::size_t>(memo_interval_) % window_.size();
    }
    WindowSlot& slot = window_[memo_slot_];
    if (slot.interval != memo_interval_) {
      // The ring wrapped onto a stale interval: this slot now measures
      // the new interval, bounding memory over unbounded traffic.
      slot = WindowSlot{};
      slot.interval = memo_interval_;
    }
    ++slot.queries;
    slot.disposable += disposable ? 1 : 0;
    slot.nxdomain += nx ? 1 : 0;
    slot.new_names += fresh ? 1 : 0;
  }
}

void TrafficSketch::fold_deltas() {
  // Ascending-id fold order is canonical: it depends only on which names
  // the stream touched, never on arrival interleaving within the window
  // since the last fold.
  std::sort(qname_touched_.begin(), qname_touched_.end());
  for (const NameId id : qname_touched_) {
    qname_heavy_.offer(id, names_[id].delta);
    names_[id].delta = 0;
  }
  qname_touched_.clear();
  std::sort(sld_touched_.begin(), sld_touched_.end());
  for (const NameId id : sld_touched_) {
    sld_heavy_.offer(id, sld_delta_[id]);
    sld_delta_[id] = 0;
  }
  sld_touched_.clear();
}

void TrafficSketch::maybe_fold() {
  if (qname_touched_.size() >= kFoldThreshold ||
      sld_touched_.size() >= kFoldThreshold) {
    fold_deltas();
  }
}

void TrafficSketch::on_tap_batch(const TapBatch& batch) {
  const NameTable& names = batch.names();
  const std::lock_guard lock(mutex_);
  // A new table (a fresh cluster, the next day) empties the remap; the
  // accumulated sketch state stays, so the sketch keeps measuring across
  // day boundaries.
  remap_.follow(names);
  for (const TapEvent& event : batch) {
    if (event.direction != TapDirection::kBelow) continue;
    NameId& local = remap_[event.qname].id;
    bool fresh = false;
    if (local == kInvalidNameId) {
      const std::string_view qname = names.name(event.qname);
      if (qname.empty()) continue;  // the root is never mapped or counted
      const LocalName resolved = intern_local(qname);
      local = resolved.id;
      fresh = resolved.fresh;
    }
    count_event(local, fresh, event.client_id,
                event.rcode == RCode::NXDomain, event.ts);
    maybe_fold();
  }
}

void TrafficSketch::collect_into(Accumulator& acc) const {
  const std::lock_guard lock(mutex_);
  acc.queries += queries_;
  acc.disposable += disposable_;
  acc.nxdomain += nxdomain_;
  acc.new_names += new_names_;
  acc.distinct_qnames.merge_from(distinct_qnames_);
  acc.distinct_clients.merge_from(distinct_clients_);
  // Overlay the un-folded exact deltas onto a *copy* of the Space-Saving
  // state: the export reflects every drained event, while writer-side
  // sketch state stays a pure function of the event stream — scrape
  // timing can never change what a later export says.
  const auto overlay = [](SpaceSavingSketch sketch,
                          const std::vector<NameId>& touched,
                          const auto& delta_of) {
    std::vector<NameId> ids = touched;
    std::sort(ids.begin(), ids.end());
    for (const NameId id : ids) sketch.offer(id, delta_of(id));
    return sketch;
  };
  const SpaceSavingSketch qname_view =
      overlay(qname_heavy_, qname_touched_,
              [this](NameId id) { return names_[id].delta; });
  const SpaceSavingSketch sld_view =
      overlay(sld_heavy_, sld_touched_,
              [this](NameId id) { return sld_delta_[id]; });
  for (const SpaceSavingSketch::Counter& counter : qname_view.counters()) {
    auto& slot = acc.qnames[std::string(qnames_.name(counter.key))];
    slot.first += counter.count;
    slot.second += counter.error;
  }
  for (const SpaceSavingSketch::Counter& counter : sld_view.counters()) {
    auto& slot = acc.slds[std::string(slds_.name(counter.key))];
    slot.first += counter.count;
    slot.second += counter.error;
  }
  for (const WindowSlot& slot : window_) {
    if (slot.interval < 0) continue;
    TrafficInterval& interval = acc.window[slot.interval];
    interval.start_ts = slot.interval * config_.interval_seconds;
    interval.queries += slot.queries;
    interval.disposable += slot.disposable;
    interval.nxdomain += slot.nxdomain;
    interval.new_names += slot.new_names;
  }
}

// --- TrafficSketchPlane -----------------------------------------------------

TrafficSketchPlane::TrafficSketchPlane(const TrafficSketchConfig& config)
    : config_(config) {
  if (config_.top_k == 0) config_.top_k = 1;
  if (config_.counters < config_.top_k) config_.counters = config_.top_k;
  if (config_.window_slots == 0) config_.window_slots = 1;
  if (config_.interval_seconds <= 0) config_.interval_seconds = 300;
  if (config_.psl == nullptr) config_.psl = &PublicSuffixList::builtin();
}

void TrafficSketchPlane::ensure_shards(std::size_t count) {
  const std::lock_guard lock(mutex_);
  while (shards_.size() < count) {
    auto shard = std::make_unique<TrafficSketch>(config_);
    if (zones_ != nullptr) shard->set_disposable_zones(zones_);
    shards_.push_back(std::move(shard));
  }
}

std::size_t TrafficSketchPlane::shard_count() const {
  const std::lock_guard lock(mutex_);
  return shards_.size();
}

TrafficSketch& TrafficSketchPlane::shard(std::size_t index) {
  const std::lock_guard lock(mutex_);
  return *shards_[index];
}

void TrafficSketchPlane::set_disposable_zones(std::vector<std::string> zones) {
  auto set = std::make_shared<DisposableZoneSet>();
  for (std::string& zone : zones) {
    if (!zone.empty()) set->insert(std::move(zone));
  }
  const std::lock_guard lock(mutex_);
  zones_ = std::move(set);
  for (const std::unique_ptr<TrafficSketch>& shard : shards_) {
    shard->set_disposable_zones(zones_);
  }
}

std::size_t TrafficSketchPlane::classifier_zone_count() const {
  const std::lock_guard lock(mutex_);
  return zones_ == nullptr ? 0 : zones_->size();
}

TrafficSnapshot TrafficSketchPlane::snapshot() const {
  TrafficSketch::Accumulator acc;
  std::size_t shard_count = 0;
  {
    const std::lock_guard lock(mutex_);
    shard_count = shards_.size();
  }
  // Shard objects are stable once created (ensure_shards only appends),
  // so collection can walk them without holding the plane lock; each
  // collect_into takes that shard's own mutex.  Index order fixes the
  // merge order, though every fold below is order-independent anyway.
  for (std::size_t i = 0; i < shard_count; ++i) {
    const TrafficSketch* shard;
    {
      const std::lock_guard lock(mutex_);
      shard = shards_[i].get();
    }
    shard->collect_into(acc);
  }

  TrafficSnapshot out;
  out.queries = acc.queries;
  out.disposable = acc.disposable;
  out.nxdomain = acc.nxdomain;
  out.new_names = acc.new_names;
  out.distinct_qnames = acc.queries == 0 ? 0.0 : acc.distinct_qnames.estimate();
  out.distinct_clients =
      acc.queries == 0 ? 0.0 : acc.distinct_clients.estimate();
  out.classifier_zones = classifier_zone_count();
  out.top_k = config_.top_k;
  out.interval_seconds = config_.interval_seconds;
  out.window_slots = config_.window_slots;

  const auto rank =
      [this](const std::map<std::string,
                            std::pair<std::uint64_t, std::uint64_t>>& merged) {
        std::vector<TrafficHeavyHitter> hitters;
        hitters.reserve(merged.size());
        for (const auto& [name, counts] : merged) {
          hitters.push_back(TrafficHeavyHitter{name, counts.first,
                                               counts.second});
        }
        // Total order: count desc, then name asc — deterministic top-K.
        std::sort(hitters.begin(), hitters.end(),
                  [](const TrafficHeavyHitter& a, const TrafficHeavyHitter& b) {
                    if (a.count != b.count) return a.count > b.count;
                    return a.name < b.name;
                  });
        if (hitters.size() > config_.top_k) hitters.resize(config_.top_k);
        return hitters;
      };
  out.top_slds = rank(acc.slds);
  out.top_qnames = rank(acc.qnames);

  for (const auto& [interval, aggregates] : acc.window) {
    out.window.push_back(aggregates);
  }
  if (out.window.size() > config_.window_slots) {
    // Shards can cover disjoint interval sets; keep the newest ring-width.
    out.window.erase(out.window.begin(),
                     out.window.end() -
                         static_cast<std::ptrdiff_t>(config_.window_slots));
  }
  return out;
}

std::string TrafficSketchPlane::to_json() const {
  return obs::to_json(snapshot());
}

void TrafficSketchPlane::publish_gauges(MetricsRegistry& registry) const {
  const TrafficSnapshot snap = snapshot();
  registry.gauge("traffic.queries").set(static_cast<double>(snap.queries));
  registry.gauge("traffic.disposable_share").set(snap.disposable_share());
  registry.gauge("traffic.nxdomain_share").set(snap.nxdomain_share());
  registry.gauge("traffic.new_names").set(static_cast<double>(snap.new_names));
  registry.gauge("traffic.distinct_qnames").set(snap.distinct_qnames);
  registry.gauge("traffic.distinct_clients").set(snap.distinct_clients);
  registry.gauge("traffic.classifier_zones")
      .set(static_cast<double>(snap.classifier_zones));
}

// --- dnsnoise-traffic-v1 export ---------------------------------------------

namespace {

void append_hitters(std::string& out,
                    const std::vector<TrafficHeavyHitter>& hitters) {
  if (hitters.empty()) {
    out += "[]";
    return;
  }
  out += "[\n";
  bool first = true;
  for (const TrafficHeavyHitter& hitter : hitters) {
    if (!first) out += ",\n";
    first = false;
    out += "    {\"name\": ";
    json_string(out, hitter.name);
    out += ", \"count\": " + std::to_string(hitter.count);
    out += ", \"error\": " + std::to_string(hitter.error);
    out += "}";
  }
  out += "\n  ]";
}

}  // namespace

std::string to_json(const TrafficSnapshot& snapshot) {
  std::string out = "{\n  \"schema\": \"dnsnoise-traffic-v1\",\n";
  const auto count_field = [&out](std::string_view name, std::uint64_t value) {
    json_key(out, 2, name);
    out += std::to_string(value);
    out += ",\n";
  };
  count_field("top_k", snapshot.top_k);
  count_field("interval_seconds",
              static_cast<std::uint64_t>(snapshot.interval_seconds));
  count_field("window_slots", snapshot.window_slots);
  count_field("queries", snapshot.queries);
  count_field("disposable", snapshot.disposable);
  count_field("nxdomain", snapshot.nxdomain);
  count_field("new_names", snapshot.new_names);
  json_key(out, 2, "disposable_share");
  out += format_double(snapshot.disposable_share());
  out += ",\n";
  json_key(out, 2, "nxdomain_share");
  out += format_double(snapshot.nxdomain_share());
  out += ",\n";
  json_key(out, 2, "distinct_qnames");
  out += format_double(snapshot.distinct_qnames);
  out += ",\n";
  json_key(out, 2, "distinct_clients");
  out += format_double(snapshot.distinct_clients);
  out += ",\n";
  count_field("classifier_zones", snapshot.classifier_zones);
  json_key(out, 2, "top_slds");
  append_hitters(out, snapshot.top_slds);
  out += ",\n";
  json_key(out, 2, "top_qnames");
  append_hitters(out, snapshot.top_qnames);
  out += ",\n";
  json_key(out, 2, "window");
  if (snapshot.window.empty()) {
    out += "[]";
  } else {
    out += "[\n";
    bool first = true;
    for (const TrafficInterval& interval : snapshot.window) {
      if (!first) out += ",\n";
      first = false;
      out += "    {\"start_ts\": " + std::to_string(interval.start_ts);
      out += ", \"queries\": " + std::to_string(interval.queries);
      out += ", \"disposable\": " + std::to_string(interval.disposable);
      out += ", \"nxdomain\": " + std::to_string(interval.nxdomain);
      out += ", \"new_names\": " + std::to_string(interval.new_names);
      out += "}";
    }
    out += "\n  ]";
  }
  out += "\n}\n";
  return out;
}

}  // namespace dnsnoise::obs
