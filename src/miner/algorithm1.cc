#include "miner/algorithm1.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "obs/stage_span.h"

namespace dnsnoise {

DisposableZoneMiner::DisposableZoneMiner(const BinaryClassifier& model,
                                         MinerConfig config)
    : model_(model), config_(config) {
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *config_.metrics;
    zones_visited_ = &metrics.counter("miner.zones_visited");
    groups_classified_ = &metrics.counter("miner.groups_classified");
    groups_decolored_ = &metrics.counter("miner.groups_decolored");
    names_decolored_ = &metrics.counter("miner.names_decolored");
    features_timer_ = &metrics.timer("miner.features");
  }
  if (config_.trace != nullptr) {
    trace_stream_ = &config_.trace->stream(obs::TraceStage::kMiner, 0);
  }
}

namespace {

/// Black proper descendants of `zone`: the weight of its walk.
std::size_t count_black(const DomainNameTree& tree, NameId zone) {
  std::size_t count = 0;
  for (NameId child = tree.first_child(zone); child != kInvalidNameId;
       child = tree.next_sibling(child)) {
    count += (tree.black(child) ? 1 : 0) + count_black(tree, child);
  }
  return count;
}

void append(std::vector<DisposableZoneFinding>& out,
            std::vector<std::vector<DisposableZoneFinding>>& parts) {
  for (std::vector<DisposableZoneFinding>& part : parts) {
    for (DisposableZoneFinding& finding : part) {
      out.push_back(std::move(finding));
    }
  }
}

}  // namespace

void DisposableZoneMiner::mine_zone(DomainNameTree& tree, NameId zone,
                                    const CacheHitRateTracker& chr,
                                    std::vector<DisposableZoneFinding>& out,
                                    const ParallelFor& parallel_for) const {
  // One span per top-level (effective-2LD) walk, traced only: miner.zone
  // has no registry timer.  A split walk waits for its subzones' tasks, so
  // the span covers them too.
  obs::StageSpan zone_span(nullptr, trace_stream_, config_.trace,
                           obs::TraceOp::kMinerZone);
  if (trace_stream_ != nullptr) {
    zone_span.annotate(tree.name(zone), 0,
                       obs::TraceOutcome::kNone, tree.depth(zone));
  }
  const ZoneScratchLease scratch;
  walk(tree, zone, chr, out, *scratch, parallel_for);
}

void DisposableZoneMiner::walk(DomainNameTree& tree, NameId zone,
                               const CacheHitRateTracker& chr,
                               std::vector<DisposableZoneFinding>& out,
                               ZoneScratch& scratch,
                               const ParallelFor& parallel_for) const {
  if (zones_visited_ != nullptr) zones_visited_->add();

  // Line 4: group black descendants by depth.
  DepthGroups& groups = scratch.groups;
  tree.black_descendants_by_depth(zone, groups);
  // Line 1-3: stop when the zone has no black descendants.
  if (groups.empty()) return;
  if (parallel_for && groups.size() >= kSplitBlackNodes) {
    split_walk(tree, zone, chr, groups, out, parallel_for);
    return;
  }

  // Lines 6-14: classify each group; decolor + output on a confident hit.
  for (std::size_t depth = groups.begin_depth(); depth < groups.end_depth();
       ++depth) {
    const std::span<const NameId> nodes = groups.at(depth);
    if (nodes.empty() || nodes.size() < config_.min_group_size) continue;
    classify(tree, zone, depth, nodes,
             features_of(tree, zone, nodes, chr, scratch.features), out);
  }

  // Lines 15-17: recurse into child zones.  Siblings' subtrees are
  // disjoint and findings are sorted by a total order, so their order
  // does not matter.  The groups above are done with, so the children
  // reuse the scratch.
  for (NameId child = tree.first_child(zone); child != kInvalidNameId;
       child = tree.next_sibling(child)) {
    walk(tree, child, chr, out, scratch, parallel_for);
  }
}

void DisposableZoneMiner::split_walk(DomainNameTree& tree, NameId zone,
                                     const CacheHitRateTracker& chr,
                                     const DepthGroups& groups,
                                     std::vector<DisposableZoneFinding>& out,
                                     const ParallelFor& parallel_for) const {
  // A group's features read no colours, so every group is extracted at
  // once; classifying and decoloring then run in depth order, as in walk().
  std::vector<std::size_t> depths;
  for (std::size_t depth = groups.begin_depth(); depth < groups.end_depth();
       ++depth) {
    const std::size_t size = groups.at(depth).size();
    if (size != 0 && size >= config_.min_group_size) depths.push_back(depth);
  }
  std::vector<GroupFeatures> features(depths.size());
  parallel_for(depths.size(), [&](std::size_t i) {
    const ZoneScratchLease scratch;
    features[i] =
        features_of(tree, zone, groups.at(depths[i]), chr, scratch->features);
  });
  for (std::size_t i = 0; i < depths.size(); ++i) {
    classify(tree, zone, depths[i], groups.at(depths[i]), features[i], out);
  }

  // The child zones start after the decoloring and are disjoint: one task
  // each, with its own findings.
  std::vector<NameId> children;
  for (NameId child = tree.first_child(zone); child != kInvalidNameId;
       child = tree.next_sibling(child)) {
    children.push_back(child);
  }
  std::vector<std::vector<DisposableZoneFinding>> outs(children.size());
  parallel_for(children.size(), [&](std::size_t c) {
    const ZoneScratchLease scratch;
    walk(tree, children[c], chr, outs[c], *scratch, parallel_for);
  });
  append(out, outs);
}

GroupFeatures DisposableZoneMiner::features_of(
    const DomainNameTree& tree, NameId zone, std::span<const NameId> nodes,
    const CacheHitRateTracker& chr, GroupFeatureScratch& scratch) const {
  const obs::StageSpan span(features_timer_);
  return compute_group_features(tree, nodes, tree.depth(zone), chr, scratch);
}

void DisposableZoneMiner::classify(
    DomainNameTree& tree, NameId zone, std::size_t depth,
    std::span<const NameId> nodes, const GroupFeatures& features,
    std::vector<DisposableZoneFinding>& out) const {
  if (groups_classified_ != nullptr) groups_classified_->add();
  if (trace_stream_ != nullptr) {
    trace_stream_->instant(obs::TraceOp::kMinerGroupClassify,
                           config_.trace->now_ns(), {}, nodes.size());
  }
  const double confidence = model_.predict_proba(features.as_array());
  if (confidence < config_.threshold) return;
  for (const NameId node : nodes) tree.decolor(node);
  if (groups_decolored_ != nullptr) {
    groups_decolored_->add();
    names_decolored_->add(nodes.size());
  }
  if (trace_stream_ != nullptr) {
    trace_stream_->instant(obs::TraceOp::kMinerDecolor,
                           config_.trace->now_ns(), tree.name(zone),
                           nodes.size());
  }
  DisposableZoneFinding finding;
  finding.zone = tree.name(zone);
  finding.depth = depth;
  finding.confidence = confidence;
  finding.group_size = nodes.size();
  finding.features = features;
  out.push_back(std::move(finding));
}

void DisposableZoneMiner::sort_findings(
    std::vector<DisposableZoneFinding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const DisposableZoneFinding& a, const DisposableZoneFinding& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.group_size != b.group_size) {
                return a.group_size > b.group_size;
              }
              if (a.zone != b.zone) return a.zone < b.zone;
              return a.depth < b.depth;
            });
}

std::vector<DisposableZoneFinding> DisposableZoneMiner::mine(
    DomainNameTree& tree, const CacheHitRateTracker& chr) const {
  return mine_zones(tree, tree.effective_2ld_nodes(*config_.psl), chr);
}

std::vector<DisposableZoneFinding> DisposableZoneMiner::mine_zones(
    DomainNameTree& tree, std::span<const NameId> zones,
    const CacheHitRateTracker& chr, const ParallelFor& parallel_for) const {
  std::vector<DisposableZoneFinding> findings;
  if (!parallel_for) {
    for (const NameId zone : zones) mine_zone(tree, zone, chr, findings, {});
    sort_findings(findings);
    return findings;
  }
  // Heaviest walks first, so the stage does not end waiting on one that
  // started late; ties keep zone order.  Subtrees are disjoint and decolor
  // writes only the node's own black byte, so concurrent walks share no
  // mutable state.  Light zones go in runs, so they do not claim a task
  // each: a run closes at 1/kRuns of the day's weight (a walk visits at
  // least its zone, hence the + 1), so a heavy zone is a run of its own.
  constexpr std::size_t kWeighBlock = 1024;
  constexpr std::size_t kRuns = 256;
  std::vector<std::size_t> weight(zones.size());
  parallel_for((zones.size() + kWeighBlock - 1) / kWeighBlock,
               [&](std::size_t block) {
                 const std::size_t end =
                     std::min(zones.size(), (block + 1) * kWeighBlock);
                 for (std::size_t i = block * kWeighBlock; i < end; ++i) {
                   weight[i] = count_black(tree, zones[i]) + 1;
                 }
               });
  const std::size_t total =
      std::accumulate(weight.begin(), weight.end(), std::size_t{0});
  // Only a zone of a run's weight can bound the stage: those go first,
  // heaviest first; the rest keep zone order.
  std::vector<std::size_t> order(zones.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto light = std::stable_partition(
      order.begin(), order.end(),
      [&](std::size_t i) { return weight[i] * kRuns >= total; });
  std::stable_sort(order.begin(), light,
                   [&weight](std::size_t a, std::size_t b) {
                     return weight[a] > weight[b];
                   });
  std::vector<std::size_t> run_end;
  std::size_t run_weight = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    run_weight += weight[order[k]];
    if (run_weight * kRuns >= total || k + 1 == order.size()) {
      run_end.push_back(k + 1);
      run_weight = 0;
    }
  }
  std::vector<std::vector<DisposableZoneFinding>> outs(run_end.size());
  parallel_for(run_end.size(), [&](std::size_t run) {
    for (std::size_t k = run == 0 ? 0 : run_end[run - 1]; k < run_end[run];
         ++k) {
      mine_zone(tree, zones[order[k]], chr, outs[run], parallel_for);
    }
  });
  append(findings, outs);
  sort_findings(findings);
  return findings;
}

}  // namespace dnsnoise
