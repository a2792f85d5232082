#include "graph/featurize.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"

namespace hap {

Tensor NodeFeatures(const Graph& g, const FeatureSpec& spec) {
  const int n = g.num_nodes();
  HAP_CHECK_GT(spec.dim, 0);
  switch (spec.kind) {
    case FeatureKind::kDegreeOneHot: {
      Tensor h(n, spec.dim);
      for (int u = 0; u < n; ++u) {
        const int d = std::min(g.Degree(u), spec.dim - 1);
        h.Set(u, d, 1.0f);
      }
      return h;
    }
    case FeatureKind::kNodeLabelOneHot: {
      Tensor h(n, spec.dim);
      for (int u = 0; u < n; ++u) {
        const int label = g.node_label(u);
        HAP_CHECK(label >= 0 && label < spec.dim)
            << "node label " << label << " outside one-hot width " << spec.dim;
        h.Set(u, label, 1.0f);
      }
      return h;
    }
    case FeatureKind::kConstant: {
      const float value = 1.0f / std::sqrt(static_cast<float>(spec.dim));
      return Tensor::Full(n, spec.dim, value);
    }
    case FeatureKind::kRelativeDegreeBuckets: {
      Tensor h(n, spec.dim);
      const double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
      for (int u = 0; u < n; ++u) {
        int bucket = static_cast<int>(spec.dim * g.Degree(u) / denom);
        bucket = std::min(bucket, spec.dim - 1);
        h.Set(u, bucket, 1.0f);
      }
      return h;
    }
    case FeatureKind::kDegreeAndLabel: {
      HAP_CHECK_GT(spec.label_dim, 0);
      Tensor h(n, spec.dim + spec.label_dim);
      for (int u = 0; u < n; ++u) {
        const int d = std::min(g.Degree(u), spec.dim - 1);
        h.Set(u, d, 1.0f);
        const int label = g.node_label(u);
        HAP_CHECK(label >= 0 && label < spec.label_dim);
        h.Set(u, spec.dim + label, 1.0f);
      }
      return h;
    }
  }
  HAP_CHECK(false) << "unreachable";
  return Tensor();
}

Status CheckNodeLabels(const Graph& g, const FeatureSpec& spec) {
  int width = 0;
  if (spec.kind == FeatureKind::kNodeLabelOneHot) width = spec.dim;
  if (spec.kind == FeatureKind::kDegreeAndLabel) width = spec.label_dim;
  if (width == 0) return Status::Ok();
  for (int u = 0; u < g.num_nodes(); ++u) {
    const int label = g.node_label(u);
    if (label < 0 || label >= width) {
      return Status::InvalidArgument(
          "node " + std::to_string(u) + " label " + std::to_string(label) +
          " outside one-hot width " + std::to_string(width));
    }
  }
  return Status::Ok();
}

}  // namespace hap
