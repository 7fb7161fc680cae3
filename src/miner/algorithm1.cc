#include "miner/algorithm1.h"

#include <algorithm>

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

void DisposableZoneMiner::mine_zone(
    DomainNameTree& tree, NameId zone, const CacheHitRateTracker& chr,
    std::vector<DisposableZoneFinding>& out) const {
  // One span per top-level (effective-2LD) walk, traced only: miner.zone
  // has no registry timer.  The recursion below goes through
  // mine_zone_walk so subzones don't open nested spans.
  obs::StageSpan zone_span(nullptr, trace_stream_, config_.trace,
                           obs::TraceOp::kMinerZone);
  if (trace_stream_ != nullptr) {
    zone_span.annotate(tree.name(zone), 0,
                       obs::TraceOutcome::kNone, tree.depth(zone));
  }
  // One scratch per top-level walk: the extraction buffers' capacity
  // survives across every group of this zone subtree, and each parallel
  // worker owns its own mine_zone call (never shared across threads).
  GroupFeatureScratch scratch;
  mine_zone_walk(tree, zone, chr, out, scratch);
}

void DisposableZoneMiner::mine_zone_walk(
    DomainNameTree& tree, NameId zone, const CacheHitRateTracker& chr,
    std::vector<DisposableZoneFinding>& out,
    GroupFeatureScratch& scratch) const {
  if (zones_visited_ != nullptr) zones_visited_->add();

  // Line 1-3: stop when the zone has no black descendants.
  if (!tree.has_black_descendant(zone)) return;

  // Line 4: group black descendants by depth.
  const auto groups = tree.black_descendants_by_depth(zone);

  // Lines 6-14: classify each group; decolor + output on a confident hit.
  for (const auto& [depth, nodes] : groups) {
    if (nodes.size() < config_.min_group_size) continue;
    GroupFeatures features;
    {
      const obs::StageSpan span(features_timer_);
      features =
          compute_group_features(tree, nodes, tree.depth(zone), chr, scratch);
    }
    if (groups_classified_ != nullptr) groups_classified_->add();
    if (trace_stream_ != nullptr) {
      trace_stream_->instant(obs::TraceOp::kMinerGroupClassify,
                             config_.trace->now_ns(), {}, nodes.size());
    }
    const double confidence = model_.predict_proba(features.as_array());
    if (confidence >= config_.threshold) {
      for (const NameId node : nodes) tree.decolor(node);
      if (groups_decolored_ != nullptr) {
        groups_decolored_->add();
        names_decolored_->add(nodes.size());
      }
      if (trace_stream_ != nullptr) {
        trace_stream_->instant(obs::TraceOp::kMinerDecolor,
                               config_.trace->now_ns(),
                               tree.name(zone), nodes.size());
      }
      DisposableZoneFinding finding;
      finding.zone = tree.name(zone);
      finding.depth = depth;
      finding.confidence = confidence;
      finding.group_size = nodes.size();
      finding.features = features;
      out.push_back(std::move(finding));
    }
  }

  // Lines 15-17: recurse into child zones.  Siblings' subtrees are
  // disjoint and findings are sorted by a total order, so their order
  // does not matter.
  for (NameId child = tree.first_child(zone); child != kInvalidNameId;
       child = tree.next_sibling(child)) {
    mine_zone_walk(tree, child, chr, out, scratch);
  }
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
  std::vector<DisposableZoneFinding> out;
  for (const NameId zone : tree.effective_2ld_nodes(*config_.psl)) {
    mine_zone(tree, zone, chr, out);
  }
  sort_findings(out);
  return out;
}

}  // namespace dnsnoise
