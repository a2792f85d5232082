#include "gnn/gcn.h"

#include "common/check.h"
#include "graph/propagation.h"
#include "tensor/ops.h"

namespace hap {

GcnLayer::GcnLayer(int in_features, int out_features, Rng* rng,
                   Activation activation)
    : linear_(in_features, out_features, rng, /*bias=*/true),
      activation_(activation) {}

Tensor GcnLayer::Forward(const Tensor& h, const GraphLevel& level) const {
  HAP_CHECK_EQ(h.rows(), level.num_nodes());
  Tensor propagated = level.Propagate(h);
  return linear_.Forward(propagated, activation_);
}

Tensor GcnLayer::ForwardBatched(const Tensor& h,
                                const BatchedLevel& level) const {
  const SegmentSpec& seg = level.segments;
  seg.Validate(h.rows());
  std::vector<Tensor> parts;
  parts.reserve(level.levels.size());
  for (int s = 0; s < level.num_graphs(); ++s) {
    Tensor h_s = SliceRows(h, seg.begin(s), seg.end(s));
    parts.push_back(level.levels[s].Propagate(h_s));
  }
  Tensor propagated = ConcatRows(parts);
  return linear_.Forward(propagated, activation_);
}

void GcnLayer::CollectParameters(std::vector<Tensor>* out) const {
  linear_.CollectParameters(out);
}

}  // namespace hap
