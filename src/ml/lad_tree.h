// LAD tree: an alternating decision tree trained with LogitBoost.
//
// The paper's selected model (Section V-C) is WEKA's LADTree.  An ADT is a
// sum-of-rules model: a root prediction plus splitter nodes, each anchored
// at a *prediction node* of the existing tree (its precondition), carrying
// a single-feature threshold test and two leaf predictions.  The score of
// an instance is the sum of every leaf prediction it reaches; LogitBoost
// adds one splitter per iteration, fitted to the working response by
// weighted least squares (Friedman, Hastie & Tibshirani 2000).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ml/classifier.h"

namespace dnsnoise {

struct LadTreeConfig {
  std::size_t iterations = 24;    // splitter nodes to grow
  double min_leaf_weight = 1e-6;  // guard against empty leaves
  /// Leaf-value shrinkage (boosting learning rate).  Values < 1 temper the
  /// overconfident probabilities additive boosting otherwise produces,
  /// giving the threshold sweep (Fig. 12) meaningful operating points.
  double shrinkage = 0.5;
};

class LadTree final : public BinaryClassifier {
 public:
  explicit LadTree(LadTreeConfig config = {}) : config_(config) {}

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::string_view name() const noexcept override { return "lad-tree"; }

  /// One splitter node of the alternating tree.
  struct Splitter {
    std::int32_t parent = -1;    // prediction-node index of the precondition
    std::size_t feature = 0;
    double threshold = 0.0;
    double left_value = 0.0;     // prediction when x[feature] < threshold
    double right_value = 0.0;
    std::int32_t left_node = 0;  // prediction-node ids introduced by this
    std::int32_t right_node = 0; // splitter (attachment points for children)
  };

  std::span<const Splitter> splitters() const noexcept { return splitters_; }
  double root_prediction() const noexcept { return root_prediction_; }
  /// Feature dimensionality the model was trained (or deserialized) with.
  std::size_t dim() const noexcept { return dim_; }

  /// Additive margin F(x); predict_proba is the logistic link of 2F.
  double margin(std::span<const double> x) const;

  /// Binary model persistence: a trained model round-trips exactly
  /// (bit-identical predictions), so a miner can ship a model trained on a
  /// labeled day and apply it elsewhere — the paper's deployment mode.
  std::vector<std::uint8_t> serialize() const;
  static std::optional<LadTree> deserialize(
      std::span<const std::uint8_t> bytes);

 private:
  LadTreeConfig config_;
  double root_prediction_ = 0.0;
  std::vector<Splitter> splitters_;
  std::size_t dim_ = 0;
};

}  // namespace dnsnoise
