// Reference capture and reference miner: an independent, string-keyed
// model of a day's capture and of what the miner must find in it.
//
// Nothing here includes src/features or src/miner.  The capture model is
// fed the tap events converted to presentation records (the edge
// conversion) and keeps plain std::map / std::set state, the way the
// paper defines it:
//   - CHR: per (name, type, rdata text), below and above counts and the
//     TTL of the first observation, in first-observation order;
//   - the queried names (every below question) and the resolved names
//     (owners of RRs seen below), each in first-sight order;
//   - the domain tree's black nodes: every owner of an RR seen below;
//   - per direction, the hourly total, NXDOMAIN, google and akamai
//     series, each event classed from its qname's text as it arrives.
// Shard models merge like the captures do: in shard order, appending
// what is new, summing counts, keeping the first TTL.
//
// The miner is the paper's text written out over that state, with the
// readings DESIGN.md §11.5 pins:
//   - the tree is every black name plus all of its ancestors;
//   - the eight group features (Section V-A2): L_k is the labels adjacent
//     to the zone, deduplicated by text; a label's entropy is
//     -sum p*log2(p) over its characters; the median and the population
//     variance are found by sorting; the CHR median is the lower median
//     of the multiset that repeats each RR's DHR once per miss, and a
//     group with no miss gets 1.0; chr_zero_frac is the RRs that have a
//     miss and zero DHR, divided by all of the group's RRs;
//   - Algorithm 1 (Section V-B) as printed, decoloring included, plus the
//     implementation's minimum group size;
//   - the labeler's choice of training groups (Section V-B2).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "dns/public_suffix.h"
#include "dns/rr.h"
#include "ml/classifier.h"
#include "resolver/tap.h"
#include "workload/scenario.h"

namespace dnsnoise::reference {

using RrText = std::tuple<std::string, RRType, std::string>;

struct ReferenceCounts {
  std::uint64_t below = 0;
  std::uint64_t above = 0;
  std::uint32_t ttl = 0;
};

/// One direction's hourly volume: an event adds its answer count (1 when
/// it failed or has no answer) to its hour, and to the NXDOMAIN, google
/// and akamai slots when it is one.
struct ReferenceSeries {
  std::array<std::uint64_t, 24> total{};
  std::array<std::uint64_t, 24> nxdomain{};
  std::array<std::uint64_t, 24> google{};
  std::array<std::uint64_t, 24> akamai{};

  ReferenceSeries& operator+=(const ReferenceSeries& other) {
    for (std::size_t h = 0; h < 24; ++h) {
      total[h] += other.total[h];
      nxdomain[h] += other.nxdomain[h];
      google[h] += other.google[h];
      akamai[h] += other.akamai[h];
    }
    return *this;
  }
};

/// Names in first-sight order plus their set.
struct OrderedNames {
  std::vector<std::string> order;
  std::set<std::string> seen;

  void add(const std::string& name) {
    if (seen.insert(name).second) order.push_back(name);
  }
};

class ReferenceCapture final : public TapObserver {
 public:
  void on_tap_batch(const TapBatch& batch) override;

  void add(SimTime ts, TapDirection direction, const std::string& qname,
           RCode rcode, const std::vector<ResourceRecord>& answers);
  void merge_from(const ReferenceCapture& other);

  std::map<RrText, ReferenceCounts> chr;
  std::vector<RrText> order;
  OrderedNames queried;
  OrderedNames resolved;
  std::set<std::string> black;
  ReferenceSeries below_series;
  ReferenceSeries above_series;

 private:
  /// The entry for `key`, created with `ttl` on first observation.
  ReferenceCounts& entry(const RrText& key, std::uint32_t ttl);
};

/// The eight features in the classifier's order: label cardinality,
/// entropy max, min, mean, median and variance, CHR median, CHR zero
/// fraction.
using Features = std::array<double, 8>;

/// One classified or labeled depth group.
struct Group {
  std::string zone;
  std::size_t depth = 0;
  std::size_t size = 0;
  Features features{};
  double confidence = 0.0;  // findings only
  int label = 0;            // labeled groups only: 1 = disposable
};

struct LabelerParams {
  std::size_t disposable_zones = 398;
  std::size_t nondisposable_zones = 401;
  std::size_t min_group_size = 15;
  std::size_t popular_min_group_size = 3;
};

class ReferenceMiner {
 public:
  /// Builds the tree of `capture`'s black names; `capture` must outlive
  /// the miner.
  explicit ReferenceMiner(const ReferenceCapture& capture);

  /// The groups the labeler trains on: each truth zone's group at its
  /// generation depth, in truth order, then each popular zone's hostname
  /// group, in scenario order, each kept when large enough.  Reads the
  /// tree before any decoloring.
  std::vector<Group> label(const Scenario& scenario,
                           const LabelerParams& params) const;

  /// Algorithm 1 from every effective 2LD.  Decolors this miner's tree,
  /// so a second call finds what the first one left.  Findings are
  /// sorted by (zone, depth).
  std::vector<Group> mine(const BinaryClassifier& model, double threshold,
                          std::size_t min_group_size,
                          const PublicSuffixList& psl);

  /// Groups classified by mine() so far.
  std::size_t groups_classified() const noexcept { return classified_; }

 private:
  /// The black proper descendants of `zone`, by depth.
  std::map<std::size_t, std::vector<std::string>> groups(
      const std::string& zone) const;
  Features features(const std::string& zone,
                    const std::vector<std::string>& group) const;
  void mine_zone(const std::string& zone, const BinaryClassifier& model,
                 double threshold, std::size_t min_group_size,
                 std::vector<Group>& out);

  std::map<std::string, std::vector<const ReferenceCounts*>> rrs_;
  std::set<std::string> nodes_;
  std::map<std::string, std::set<std::string>> children_;
  std::set<std::string> black_;
  std::size_t classified_ = 0;
};

}  // namespace dnsnoise::reference
