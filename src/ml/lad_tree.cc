#include "ml/lad_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace dnsnoise {

namespace {

constexpr double kMaxWorkingResponse = 4.0;
constexpr double kMinWeight = 1e-24;

struct MemberStat {
  double value = 0.0;  // feature value
  double wz = 0.0;     // weight * working response
  double w = 0.0;      // weight
};

/// Best split of one candidate node on one feature: returns (gain,
/// threshold, left fit, right fit); gain < 0 means no valid split.
struct SplitFit {
  double gain = -1.0;
  double threshold = 0.0;
  double left = 0.0;
  double right = 0.0;
};

SplitFit best_split(std::vector<MemberStat>& members, double min_leaf_weight) {
  SplitFit fit;
  if (members.size() < 2) return fit;
  std::sort(members.begin(), members.end(),
            [](const MemberStat& a, const MemberStat& b) {
              return a.value < b.value;
            });
  double total_wz = 0.0;
  double total_w = 0.0;
  for (const MemberStat& m : members) {
    total_wz += m.wz;
    total_w += m.w;
  }
  double left_wz = 0.0;
  double left_w = 0.0;
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {
    left_wz += members[i].wz;
    left_w += members[i].w;
    if (members[i].value == members[i + 1].value) continue;
    const double right_wz = total_wz - left_wz;
    const double right_w = total_w - left_w;
    if (left_w < min_leaf_weight || right_w < min_leaf_weight) continue;
    // Weighted-least-squares gain of fitting each side by its mean.
    const double gain =
        left_wz * left_wz / left_w + right_wz * right_wz / right_w;
    if (gain > fit.gain) {
      fit.gain = gain;
      fit.threshold = 0.5 * (members[i].value + members[i + 1].value);
      fit.left = 0.5 * left_wz / left_w;    // LogitBoost half-step
      fit.right = 0.5 * right_wz / right_w;
    }
  }
  return fit;
}

}  // namespace

void LadTree::train(const Dataset& data) {
  if (data.size() == 0) throw std::invalid_argument("LadTree: empty dataset");
  dim_ = data.dim();
  splitters_.clear();
  const std::size_t n = data.size();

  // Root prediction from the class prior (Laplace-smoothed log odds).
  const double positives = static_cast<double>(data.positives());
  const double negatives = static_cast<double>(n) - positives;
  root_prediction_ = 0.5 * std::log((positives + 1.0) / (negatives + 1.0));

  std::vector<double> margin_of(n, root_prediction_);
  // Membership of samples in prediction nodes; node 0 is the root.
  std::vector<std::vector<std::uint32_t>> node_members(1);
  node_members[0].resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    node_members[0][i] = static_cast<std::uint32_t>(i);
  }

  std::vector<double> weight(n);
  std::vector<double> response(n);

  for (std::size_t iter = 0; iter < config_.iterations; ++iter) {
    // LogitBoost working response and weights.
    for (std::size_t i = 0; i < n; ++i) {
      const double p = 1.0 / (1.0 + std::exp(-2.0 * margin_of[i]));
      const double w = std::max(p * (1.0 - p), kMinWeight);
      const double y = static_cast<double>(data.label(i));
      weight[i] = w;
      response[i] = std::clamp((y - p) / w, -kMaxWorkingResponse,
                               kMaxWorkingResponse);
    }

    // Search every (prediction node, feature) pair for the best split.
    double best_gain = 0.0;
    std::int32_t best_parent = -1;
    std::size_t best_feature = 0;
    SplitFit best_fit;
    std::vector<MemberStat> members;
    for (std::size_t node = 0; node < node_members.size(); ++node) {
      const auto& samples = node_members[node];
      if (samples.size() < 2) continue;
      for (std::size_t feature = 0; feature < dim_; ++feature) {
        members.clear();
        members.reserve(samples.size());
        for (const std::uint32_t i : samples) {
          members.push_back({data.features(i)[feature],
                             weight[i] * response[i], weight[i]});
        }
        const SplitFit fit = best_split(members, config_.min_leaf_weight);
        if (fit.gain > best_gain) {
          best_gain = fit.gain;
          best_parent = static_cast<std::int32_t>(node);
          best_feature = feature;
          best_fit = fit;
        }
      }
    }
    if (best_parent < 0) break;  // nothing splittable left

    Splitter splitter;
    splitter.parent = best_parent;
    splitter.feature = best_feature;
    splitter.threshold = best_fit.threshold;
    splitter.left_value = best_fit.left * config_.shrinkage;
    splitter.right_value = best_fit.right * config_.shrinkage;
    splitter.left_node = static_cast<std::int32_t>(node_members.size());
    splitter.right_node = splitter.left_node + 1;

    // Route the parent's members and update margins.
    std::vector<std::uint32_t> left_members;
    std::vector<std::uint32_t> right_members;
    for (const std::uint32_t i :
         node_members[static_cast<std::size_t>(best_parent)]) {
      if (data.features(i)[best_feature] < splitter.threshold) {
        margin_of[i] += splitter.left_value;
        left_members.push_back(i);
      } else {
        margin_of[i] += splitter.right_value;
        right_members.push_back(i);
      }
    }
    node_members.push_back(std::move(left_members));
    node_members.push_back(std::move(right_members));
    splitters_.push_back(splitter);
  }
}

double LadTree::margin(std::span<const double> x) const {
  if (x.size() != dim_) {
    throw std::invalid_argument("LadTree: feature dimension mismatch");
  }
  double total = root_prediction_;
  // Prediction-node activity; parents are always created before children,
  // so one forward pass suffices.
  std::vector<char> active(1 + 2 * splitters_.size(), 0);
  active[0] = 1;
  for (const Splitter& s : splitters_) {
    if (!active[static_cast<std::size_t>(s.parent)]) continue;
    if (x[s.feature] < s.threshold) {
      total += s.left_value;
      active[static_cast<std::size_t>(s.left_node)] = 1;
    } else {
      total += s.right_value;
      active[static_cast<std::size_t>(s.right_node)] = 1;
    }
  }
  return total;
}

double LadTree::predict_proba(std::span<const double> x) const {
  return 1.0 / (1.0 + std::exp(-2.0 * margin(x)));
}

namespace {

constexpr char kModelMagic[4] = {'L', 'A', 'D', '1'};

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

bool get_u64(std::span<const std::uint8_t> bytes, std::size_t& pos,
             std::uint64_t& out) {
  if (pos + 8 > bytes.size()) return false;
  out = 0;
  for (int i = 0; i < 8; ++i)
    out |= std::uint64_t{bytes[pos + static_cast<std::size_t>(i)]} << (i * 8);
  pos += 8;
  return true;
}

bool get_f64(std::span<const std::uint8_t> bytes, std::size_t& pos,
             double& out) {
  std::uint64_t bits = 0;
  if (!get_u64(bytes, pos, bits)) return false;
  std::memcpy(&out, &bits, sizeof(out));
  return true;
}

}  // namespace

std::vector<std::uint8_t> LadTree::serialize() const {
  std::vector<std::uint8_t> out;
  out.insert(out.end(), std::begin(kModelMagic), std::end(kModelMagic));
  put_u64(out, dim_);
  put_f64(out, root_prediction_);
  put_u64(out, splitters_.size());
  for (const Splitter& s : splitters_) {
    put_u64(out, static_cast<std::uint64_t>(s.parent));
    put_u64(out, s.feature);
    put_f64(out, s.threshold);
    put_f64(out, s.left_value);
    put_f64(out, s.right_value);
    put_u64(out, static_cast<std::uint64_t>(s.left_node));
    put_u64(out, static_cast<std::uint64_t>(s.right_node));
  }
  return out;
}

std::optional<LadTree> LadTree::deserialize(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4 ||
      std::memcmp(bytes.data(), kModelMagic, 4) != 0) {
    return std::nullopt;
  }
  std::size_t pos = 4;
  LadTree model;
  std::uint64_t dim = 0;
  std::uint64_t count = 0;
  if (!get_u64(bytes, pos, dim)) return std::nullopt;
  if (!get_f64(bytes, pos, model.root_prediction_)) return std::nullopt;
  if (!get_u64(bytes, pos, count)) return std::nullopt;
  model.dim_ = static_cast<std::size_t>(dim);
  // Each splitter occupies 7 * 8 bytes; reject counts the input can't hold
  // (also bounds the reserve below on corrupt input).
  constexpr std::uint64_t kSplitterBytes = 56;
  if (count > (bytes.size() - pos) / kSplitterBytes) return std::nullopt;
  model.splitters_.reserve(count);
  const std::uint64_t node_limit = 1 + 2 * count;
  for (std::uint64_t i = 0; i < count; ++i) {
    Splitter s;
    std::uint64_t parent = 0;
    std::uint64_t feature = 0;
    std::uint64_t left = 0;
    std::uint64_t right = 0;
    if (!get_u64(bytes, pos, parent)) return std::nullopt;
    if (!get_u64(bytes, pos, feature)) return std::nullopt;
    if (!get_f64(bytes, pos, s.threshold)) return std::nullopt;
    if (!get_f64(bytes, pos, s.left_value)) return std::nullopt;
    if (!get_f64(bytes, pos, s.right_value)) return std::nullopt;
    if (!get_u64(bytes, pos, left)) return std::nullopt;
    if (!get_u64(bytes, pos, right)) return std::nullopt;
    // Structural validation (on the raw 64-bit values, before any
    // narrowing) keeps margin() in bounds on corrupt input.
    if (parent >= node_limit || feature >= model.dim_ || left == 0 ||
        left >= node_limit || right == 0 || right >= node_limit) {
      return std::nullopt;
    }
    s.parent = static_cast<std::int32_t>(parent);
    s.feature = static_cast<std::size_t>(feature);
    s.left_node = static_cast<std::int32_t>(left);
    s.right_node = static_cast<std::int32_t>(right);
    model.splitters_.push_back(s);
  }
  return model;
}

}  // namespace dnsnoise
