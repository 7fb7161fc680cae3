// Training-set construction (paper Section IV-B / V-B2).
//
// The paper hand-labeled 398 zones as disposable and 401 Alexa-top-1000
// 2LDs as non-disposable, keeping only zones with at least 15 observed
// disposable names.  Here labels come from the scenario's ground truth; an
// optional label-noise knob models human labeling error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "features/chr.h"
#include "features/domain_tree.h"
#include "features/extractor.h"
#include "ml/dataset.h"
#include "workload/scenario.h"

namespace dnsnoise {

struct LabelerConfig {
  std::size_t disposable_zones = 398;
  std::size_t nondisposable_zones = 401;
  /// Minimum observed group size for a zone to be labeled (paper: 15).
  std::size_t min_group_size = 15;
  /// Probability of flipping a label (simulated human labeling error).
  double label_noise = 0.0;
  std::uint64_t seed = 99;
};

struct LabeledZone {
  std::string zone;
  std::size_t depth = 0;
  int label = 0;  // 1 = disposable
  GroupFeatures features;
};

/// Extracts labeled feature vectors from one day's capture.  Disposable
/// samples are the truth zones' generation-depth groups; non-disposable
/// samples are the popular zones' hostname groups.
std::vector<LabeledZone> label_zones(const DomainNameTree& tree,
                                     const CacheHitRateTracker& chr,
                                     const Scenario& scenario,
                                     const LabelerConfig& config = {});

/// Packs labeled zones into an ml::Dataset (feature order = kFeatureNames).
Dataset to_dataset(const std::vector<LabeledZone>& zones);

}  // namespace dnsnoise
