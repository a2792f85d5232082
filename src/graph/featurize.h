#ifndef HAP_GRAPH_FEATURIZE_H_
#define HAP_GRAPH_FEATURIZE_H_

#include "common/status.h"
#include "graph/graph.h"
#include "tensor/tensor.h"

namespace hap {

/// How initial node features H (N x F) are constructed from a graph.
/// Mirrors Sec. 6.1.3: social-network datasets with no informative node
/// attributes use one-hot degree encodings; labeled molecule datasets use
/// one-hot node labels; otherwise identical constant features.
enum class FeatureKind {
  kDegreeOneHot,
  kNodeLabelOneHot,
  kConstant,
  /// Degree one-hot concatenated with node-label one-hot.
  kDegreeAndLabel,
  /// One-hot over degree/(N-1) buckets: the "same form of features" across
  /// graph sizes that Sec. 6.5.3's generalization experiment relies on.
  kRelativeDegreeBuckets,
};

struct FeatureSpec {
  FeatureKind kind = FeatureKind::kConstant;
  /// One-hot width. For kDegreeOneHot degrees are clamped to [0, dim-1];
  /// for kNodeLabelOneHot labels must lie in [0, dim). For kConstant this
  /// is the feature dimension (all-ones column scaled by 1/sqrt(dim)).
  int dim = 8;
  /// Only for kDegreeAndLabel: width of the label part (dim = degree part).
  int label_dim = 0;

  /// Total feature dimensionality produced by NodeFeatures().
  int FeatureDim() const {
    return kind == FeatureKind::kDegreeAndLabel ? dim + label_dim : dim;
  }
};

/// Builds the initial feature matrix H for `g` according to `spec`.
/// The result is a leaf tensor with no gradient. Node labels outside the
/// spec's one-hot width are a HAP_CHECK failure; check untrusted graphs
/// with CheckNodeLabels first.
Tensor NodeFeatures(const Graph& g, const FeatureSpec& spec);

/// InvalidArgument when a node label of `g` lies outside the one-hot
/// width `spec` encodes labels with ([0, dim) for kNodeLabelOneHot,
/// [0, label_dim) for kDegreeAndLabel); OK otherwise, and always OK for
/// kinds that ignore labels.
Status CheckNodeLabels(const Graph& g, const FeatureSpec& spec);

}  // namespace hap

#endif  // HAP_GRAPH_FEATURIZE_H_
