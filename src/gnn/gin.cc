#include "gnn/gin.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace hap {

GinLayer::GinLayer(int in_features, int out_features, Rng* rng,
                   Activation activation, float eps)
    : mlp1_(in_features, out_features, rng),
      mlp2_(out_features, out_features, rng),
      activation_(activation),
      eps_(eps) {}

Tensor GinLayer::Forward(const Tensor& h, const GraphLevel& level) const {
  HAP_CHECK_EQ(h.rows(), level.num_nodes());
  Tensor aggregated =
      Add(MulScalar(h, 1.0f + eps_), level.Aggregate(h));
  Tensor hidden = mlp1_.Forward(aggregated, Activation::kRelu);
  return mlp2_.Forward(hidden, activation_);
}

Tensor GinLayer::ForwardBatched(const Tensor& h,
                                const BatchedLevel& level) const {
  const SegmentSpec& seg = level.segments;
  seg.Validate(h.rows());
  std::vector<Tensor> parts;
  parts.reserve(level.levels.size());
  for (int s = 0; s < level.num_graphs(); ++s) {
    Tensor h_s = SliceRows(h, seg.begin(s), seg.end(s));
    parts.push_back(level.levels[s].Aggregate(h_s));
  }
  Tensor aggregated = Add(MulScalar(h, 1.0f + eps_), ConcatRows(parts));
  Tensor hidden = mlp1_.Forward(aggregated, Activation::kRelu);
  return mlp2_.Forward(hidden, activation_);
}

void GinLayer::CollectParameters(std::vector<Tensor>* out) const {
  mlp1_.CollectParameters(out);
  mlp2_.CollectParameters(out);
}

}  // namespace hap
