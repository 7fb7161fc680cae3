#include "miner/evaluate.h"

#include <algorithm>
#include <string_view>

namespace dnsnoise {

FindingCover::FindingCover(const DomainNameTree& tree,
                           std::span<const DisposableZoneFinding> findings,
                           const ParallelFor& parallel_for)
    : covered_(tree.names().size(), 0) {
  std::vector<std::pair<NameId, std::size_t>> rules;  // (zone, depth)
  for (const DisposableZoneFinding& finding : findings) {
    const NameId zone = tree.names().find(finding.zone);
    if (tree.is_name(zone)) rules.emplace_back(zone, finding.depth);
  }
  std::sort(rules.begin(), rules.end());
  // Few names are findings' zones: flag them, so most ancestor steps are
  // one byte load and only a flagged zone searches the rules.
  std::vector<std::uint8_t> zone_flag(covered_.size(), 0);
  for (const auto& [zone, depth] : rules) zone_flag[zone] = 1;
  constexpr std::size_t kRange = std::size_t{1} << 14;
  const std::size_t ranges = (covered_.size() + kRange - 1) / kRange;
  run_parallel(parallel_for, ranges, [&](std::size_t range) {
    const std::size_t end = std::min(covered_.size(), (range + 1) * kRange);
    for (std::size_t i = range * kRange; i < end; ++i) {
      const auto id = static_cast<NameId>(i);
      if (!tree.is_name(id)) continue;
      const std::size_t depth = tree.depth(id);
      for (NameId zone = tree.parent(id);
           zone != kInvalidNameId && zone != tree.root();
           zone = tree.parent(zone)) {
        if (zone_flag[zone] != 0 &&
            std::binary_search(rules.begin(), rules.end(),
                               std::make_pair(zone, depth))) {
          covered_[i] = 1;
          break;
        }
      }
    }
  });
}

std::size_t FindingCover::count(std::span<const NameId> ids) const noexcept {
  std::size_t n = 0;
  for (const NameId id : ids) n += covers(id) ? 1 : 0;
  return n;
}

namespace {

/// One label-boundary suffix of a truth apex's normalized text, the root
/// ("") and the whole text included.
struct ApexSuffix {
  std::string_view suffix;
  std::uint32_t zone = 0;  // index into GroundTruth::disposable_zones
  bool whole = false;      // the suffix is the apex itself
};

/// Calls `fn` with every label-boundary suffix of the normalized `name`,
/// longest first: the name itself, each text after a dot, then the root.
template <typename Fn>
void for_each_suffix(std::string_view name, Fn&& fn) {
  for (std::size_t at = 0; at < name.size();) {
    fn(name.substr(at));
    const std::size_t dot = name.find('.', at);
    if (dot == std::string_view::npos) break;
    at = dot + 1;
  }
  fn(std::string_view());
}

}  // namespace

MiningEvaluation evaluate_findings(
    std::span<const DisposableZoneFinding> findings, const GroundTruth& truth,
    const PublicSuffixList& psl) {
  MiningEvaluation eval;
  eval.findings = findings.size();
  const std::vector<GroundTruth::ZoneInfo>& zones = truth.disposable_zones;

  // Normalized texts are kept in one buffer reserved up front, so views
  // into it stay valid: normalizing never lengthens a name.
  std::size_t bytes = 0;
  for (const GroundTruth::ZoneInfo& info : zones) bytes += info.apex.size();
  for (const DisposableZoneFinding& f : findings) bytes += f.zone.size();
  std::string texts;
  texts.reserve(bytes);
  const auto keep = [&texts](std::string_view text) {
    const std::size_t at = texts.size();
    texts += text;
    return std::string_view(texts).substr(at);
  };

  // Every suffix of every apex that parses, sorted, so a finding finds the
  // apexes it is within, or that are within it, through its own suffixes.
  DomainName name;  // scratch: parses without allocating once grown
  std::vector<ApexSuffix> index;
  for (std::size_t i = 0; i < zones.size(); ++i) {
    if (!name.assign(zones[i].apex)) continue;
    const std::string_view apex = keep(name.text());
    for_each_suffix(apex, [&](std::string_view suffix) {
      index.push_back({suffix, static_cast<std::uint32_t>(i),
                       suffix.size() == apex.size()});
    });
  }
  // Stable, so each suffix's zones stay in truth order.
  const auto by_suffix = [](const ApexSuffix& a, const ApexSuffix& b) {
    return a.suffix < b.suffix;
  };
  std::stable_sort(index.begin(), index.end(), by_suffix);
  const auto with_suffix = [&](std::string_view suffix) {
    return std::equal_range(index.begin(), index.end(), ApexSuffix{suffix},
                            by_suffix);
  };

  std::vector<std::string_view> registrables;
  registrables.reserve(findings.size());
  std::vector<std::uint32_t> matched;  // each match's zone, in match order
  for (const DisposableZoneFinding& finding : findings) {
    if (!name.assign(finding.zone)) {
      ++eval.false_positive_findings;
      continue;
    }
    const std::size_t suffix = psl.suffix_label_count(name.text());
    registrables.push_back(name.label_count() <= suffix
                               ? std::string_view(finding.zone)
                               : keep(name.nld_view(suffix + 1)));
    // A truth zone matches at the finding's depth when its apex is within
    // the finding's zone (the zone is one of the apex's suffixes) or the
    // zone is within its apex (the apex is one of the zone's suffixes).
    const std::size_t before = matched.size();
    const auto add = [&](const ApexSuffix& entry) {
      if (zones[entry.zone].name_depth == finding.depth) {
        matched.push_back(entry.zone);
      }
    };
    const std::string_view zone = name.text();
    const auto [lo, hi] = with_suffix(zone);
    std::for_each(lo, hi, add);
    for_each_suffix(zone, [&](std::string_view within) {
      if (within.size() == zone.size()) return;  // equal apexes: added above
      const auto [from, to] = with_suffix(within);
      for (auto it = from; it != to; ++it) {
        if (it->whole) add(*it);
      }
    });
    matched.size() > before ? ++eval.true_positive_findings
                            : ++eval.false_positive_findings;
  }

  std::sort(registrables.begin(), registrables.end());
  eval.unique_2lds = static_cast<std::size_t>(
      std::unique(registrables.begin(), registrables.end()) -
      registrables.begin());
  // Truth zones are discovered by apex text, and a discovered apex takes
  // the archetype of its last match: the last of its run once sorted.
  std::stable_sort(matched.begin(), matched.end(),
                   [&zones](std::uint32_t a, std::uint32_t b) {
                     return zones[a].apex < zones[b].apex;
                   });
  for (std::size_t k = 0; k < matched.size(); ++k) {
    const GroundTruth::ZoneInfo& info = zones[matched[k]];
    if (k + 1 < matched.size() && zones[matched[k + 1]].apex == info.apex) {
      continue;
    }
    ++eval.truth_zones_discovered;
    ++eval.discovered_by_archetype[info.archetype];
  }
  return eval;
}

}  // namespace dnsnoise
