#include "reference_miner.h"

#include <algorithm>
#include <cmath>

namespace dnsnoise::reference {

void ReferenceCapture::on_tap_batch(const TapBatch& batch) {
  std::vector<ResourceRecord> answers;
  for (const TapEvent& event : batch) {
    to_resource_records(batch.answers(event), batch.names(), answers);
    add(event.ts, event.direction, std::string(batch.qname(event)),
        event.rcode, answers);
  }
}

void ReferenceCapture::add(SimTime ts, TapDirection direction,
                           const std::string& qname, RCode rcode,
                           const std::vector<ResourceRecord>& answers) {
  const bool below = direction == TapDirection::kBelow;
  const bool nx = rcode != RCode::NoError;
  ReferenceSeries& series = below ? below_series : above_series;
  const auto hour = static_cast<std::size_t>(hour_of_day(ts));
  const std::uint64_t units = nx || answers.empty() ? 1 : answers.size();
  series.total[hour] += units;
  if (nx) series.nxdomain[hour] += units;
  if (Scenario::is_google_name(qname)) series.google[hour] += units;
  if (Scenario::is_akamai_name(qname)) series.akamai[hour] += units;
  if (below) queried.add(qname);
  if (nx) return;
  for (const ResourceRecord& rr : answers) {
    ReferenceCounts& counts =
        entry(RrText{rr.name.text(), rr.type, rr.rdata}, rr.ttl);
    if (!below) {
      ++counts.above;
      continue;
    }
    if (counts.below++ == 0) resolved.add(rr.name.text());
    black.insert(rr.name.text());
  }
}

void ReferenceCapture::merge_from(const ReferenceCapture& other) {
  for (const RrText& key : other.order) {
    const ReferenceCounts& src = other.chr.at(key);
    ReferenceCounts& dst = entry(key, src.ttl);
    dst.below += src.below;
    dst.above += src.above;
  }
  for (const std::string& name : other.queried.order) queried.add(name);
  for (const std::string& name : other.resolved.order) resolved.add(name);
  black.insert(other.black.begin(), other.black.end());
  below_series += other.below_series;
  above_series += other.above_series;
}

ReferenceCounts& ReferenceCapture::entry(const RrText& key,
                                         std::uint32_t ttl) {
  const auto [it, inserted] = chr.try_emplace(key);
  if (inserted) {
    it->second.ttl = ttl;
    order.push_back(key);
  }
  return it->second;
}

namespace {

/// Label count; 0 for the root "".
std::size_t depth_of(const std::string& name) {
  if (name.empty()) return 0;
  return static_cast<std::size_t>(std::count(name.begin(), name.end(), '.')) +
         1;
}

/// The name one label up; "" (the root) above a TLD.
std::string parent_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? std::string() : name.substr(dot + 1);
}

std::string first_label(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Shannon entropy of the label's characters: -sum p*log2(p).
double entropy(const std::string& label) {
  std::map<char, std::size_t> counts;
  for (const char c : label) ++counts[c];
  double h = 0.0;
  for (const auto& [c, n] : counts) {
    const double p =
        static_cast<double>(n) / static_cast<double>(label.size());
    h -= p * std::log2(p);
  }
  return h;
}

/// Domain hit rate: hits over queries, 0 with no query or no hit.
double dhr(const ReferenceCounts& counts) {
  if (counts.below == 0 || counts.above >= counts.below) return 0.0;
  return static_cast<double>(counts.below - counts.above) /
         static_cast<double>(counts.below);
}

}  // namespace

ReferenceMiner::ReferenceMiner(const ReferenceCapture& capture)
    : black_(capture.black) {
  nodes_.insert(std::string());
  for (const std::string& name : capture.black) {
    for (std::string node = name; !node.empty(); node = parent_of(node)) {
      if (!nodes_.insert(node).second) break;
      children_[parent_of(node)].insert(node);
    }
  }
  for (const auto& [key, counts] : capture.chr) {
    rrs_[std::get<0>(key)].push_back(&counts);
  }
}

std::map<std::size_t, std::vector<std::string>> ReferenceMiner::groups(
    const std::string& zone) const {
  std::map<std::size_t, std::vector<std::string>> out;
  std::vector<std::string> stack{zone};
  while (!stack.empty()) {
    const std::string node = stack.back();
    stack.pop_back();
    const auto it = children_.find(node);
    if (it == children_.end()) continue;
    for (const std::string& child : it->second) {
      if (black_.contains(child)) out[depth_of(child)].push_back(child);
      stack.push_back(child);
    }
  }
  return out;
}

Features ReferenceMiner::features(const std::string& zone,
                                  const std::vector<std::string>& group) const {
  // Tree structure: the labels adjacent to the zone, as a set of text.
  const std::size_t zone_depth = depth_of(zone);
  std::set<std::string> labels;
  for (std::string name : group) {
    while (depth_of(name) > zone_depth + 1) name = parent_of(name);
    labels.insert(first_label(name));
  }
  std::vector<double> h;
  for (const std::string& label : labels) h.push_back(entropy(label));
  std::sort(h.begin(), h.end());
  const auto n = static_cast<double>(h.size());
  double sum = 0.0;
  for (const double v : h) sum += v;
  const double mean = sum / n;
  double squares = 0.0;
  for (const double v : h) squares += (v - mean) * (v - mean);
  const double median = h.size() % 2 == 1
                            ? h[h.size() / 2]
                            : (h[h.size() / 2 - 1] + h[h.size() / 2]) / 2.0;

  // Cache hit rate: every RR owned by a group member.
  std::vector<double> per_miss;  // each RR's DHR, once per miss
  std::size_t rrs = 0;
  std::size_t zero = 0;
  for (const std::string& name : group) {
    const auto it = rrs_.find(name);
    if (it == rrs_.end()) continue;
    for (const ReferenceCounts* counts : it->second) {
      ++rrs;
      const double rate = dhr(*counts);
      if (counts->above > 0 && rate == 0.0) ++zero;
      per_miss.insert(per_miss.end(), counts->above, rate);
    }
  }
  std::sort(per_miss.begin(), per_miss.end());
  const double chr_median =
      per_miss.empty() ? 1.0 : per_miss[(per_miss.size() - 1) / 2];
  const double chr_zero_frac =
      rrs == 0 ? 0.0 : static_cast<double>(zero) / static_cast<double>(rrs);

  return {n,      h.back(),         h.front(), mean, median,
          squares / n, chr_median, chr_zero_frac};
}

std::vector<Group> ReferenceMiner::label(const Scenario& scenario,
                                         const LabelerParams& params) const {
  std::vector<Group> out;
  const auto add = [&](const std::string& zone, std::size_t depth,
                       std::size_t min_size, int label) {
    if (!nodes_.contains(zone)) return false;
    const auto all = groups(zone);
    const auto it = all.find(depth);
    if (it == all.end() || it->second.size() < min_size) return false;
    out.push_back(Group{zone, depth, it->second.size(),
                        features(zone, it->second), 0.0, label});
    return true;
  };
  for (const GroundTruth::ZoneInfo& info : scenario.truth().disposable_zones) {
    if (out.size() >= params.disposable_zones) break;
    add(info.apex, info.name_depth, params.min_group_size, 1);
  }
  std::size_t negatives = 0;
  for (const std::string& apex : scenario.popular_apexes()) {
    if (negatives >= params.nondisposable_zones) break;
    if (add(apex, depth_of(apex) + 1, params.popular_min_group_size, 0)) {
      ++negatives;
    }
  }
  return out;
}

void ReferenceMiner::mine_zone(const std::string& zone,
                               const BinaryClassifier& model, double threshold,
                               std::size_t min_group_size,
                               std::vector<Group>& out) {
  // Lines 1-3: a zone with no black descendant ends the walk.
  const auto by_depth = groups(zone);
  if (by_depth.empty()) return;
  // Lines 4-14: classify each depth group; decolor and output the
  // confident ones.
  for (const auto& [depth, names] : by_depth) {
    if (names.size() < min_group_size) continue;
    const Features f = features(zone, names);
    ++classified_;
    const double confidence = model.predict_proba(f);
    if (confidence < threshold) continue;
    for (const std::string& name : names) black_.erase(name);
    out.push_back(Group{zone, depth, names.size(), f, confidence, 0});
  }
  // Lines 15-17: recurse into the child zones.
  const auto it = children_.find(zone);
  if (it == children_.end()) return;
  for (const std::string& child : it->second) {
    mine_zone(child, model, threshold, min_group_size, out);
  }
}

std::vector<Group> ReferenceMiner::mine(const BinaryClassifier& model,
                                        double threshold,
                                        std::size_t min_group_size,
                                        const PublicSuffixList& psl) {
  // Effective 2LDs: the children of public-suffix nodes that are not
  // public suffixes themselves.
  std::vector<std::string> zones;
  std::vector<std::string> suffixes{std::string()};
  while (!suffixes.empty()) {
    const std::string node = suffixes.back();
    suffixes.pop_back();
    const auto it = children_.find(node);
    if (it == children_.end()) continue;
    for (const std::string& child : it->second) {
      const DomainName name(child);
      if (psl.suffix_label_count(name) == name.label_count()) {
        suffixes.push_back(child);
      } else {
        zones.push_back(child);
      }
    }
  }
  std::vector<Group> out;
  for (const std::string& zone : zones) {
    mine_zone(zone, model, threshold, min_group_size, out);
  }
  std::sort(out.begin(), out.end(), [](const Group& a, const Group& b) {
    return std::tie(a.zone, a.depth) < std::tie(b.zone, b.depth);
  });
  return out;
}

}  // namespace dnsnoise::reference
