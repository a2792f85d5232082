#include "gnn/gat.h"

#include "common/check.h"
#include "graph/propagation.h"
#include "tensor/ops.h"

namespace hap {

namespace {

Tensor ApplyActivation(const Tensor& x, Activation activation) {
  switch (activation) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return Relu(x);
    case Activation::kTanh:
      return Tanh(x);
  }
  HAP_CHECK(false) << "unreachable";
  return x;
}

}  // namespace

GatLayer::GatLayer(int in_features, int out_features, Rng* rng,
                   Activation activation, float leaky_slope)
    : linear_(in_features, out_features, rng, /*bias=*/false),
      attn_self_(Tensor::Xavier(out_features, 1, rng)),
      attn_neighbor_(Tensor::Xavier(out_features, 1, rng)),
      activation_(activation),
      leaky_slope_(leaky_slope) {}

Tensor GatLayer::Forward(const Tensor& h, const GraphLevel& level) const {
  HAP_CHECK_EQ(h.rows(), level.num_nodes());
  Tensor wh = linear_.Forward(h);                       // (N, out)
  Tensor self_scores = MatMul(wh, attn_self_);          // (N, 1)
  Tensor neighbor_scores = MatMul(wh, attn_neighbor_);  // (N, 1)
  Tensor logits = LeakyRelu(
      OuterSum(self_scores, Transpose(neighbor_scores)), leaky_slope_);
  Tensor attention = SoftmaxRows(Add(logits, level.LogMask()));
  return ApplyActivation(MatMul(attention, wh), activation_);
}

Tensor GatLayer::ForwardBatched(const Tensor& h,
                                const BatchedLevel& level) const {
  const SegmentSpec& seg = level.segments;
  seg.Validate(h.rows());
  // Shared-parameter products run fused over all graphs; the attention
  // itself is per segment — each graph's scores normalise behind its own
  // log mask, so nothing crosses a graph boundary.
  Tensor wh = linear_.Forward(h);
  Tensor self_scores = MatMul(wh, attn_self_);
  Tensor neighbor_scores = MatMul(wh, attn_neighbor_);
  std::vector<Tensor> parts;
  parts.reserve(level.levels.size());
  for (int s = 0; s < level.num_graphs(); ++s) {
    Tensor self_s = SliceRows(self_scores, seg.begin(s), seg.end(s));
    Tensor neigh_s = SliceRows(neighbor_scores, seg.begin(s), seg.end(s));
    Tensor logits =
        LeakyRelu(OuterSum(self_s, Transpose(neigh_s)), leaky_slope_);
    Tensor attention =
        SoftmaxRows(Add(logits, level.levels[s].LogMask()));
    parts.push_back(
        MatMul(attention, SliceRows(wh, seg.begin(s), seg.end(s))));
  }
  return ApplyActivation(ConcatRows(parts), activation_);
}

void GatLayer::CollectParameters(std::vector<Tensor>* out) const {
  linear_.CollectParameters(out);
  out->push_back(attn_self_);
  out->push_back(attn_neighbor_);
}

}  // namespace hap
