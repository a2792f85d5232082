#include "pooling/diffpool.h"

#include <utility>

#include "tensor/ops.h"

namespace hap {

DiffPoolCoarsener::DiffPoolCoarsener(int in_features, int num_clusters,
                                     Rng* rng)
    : assign_layer_(in_features, num_clusters, rng, Activation::kNone),
      embed_layer_(in_features, in_features, rng, Activation::kRelu),
      num_clusters_(num_clusters) {}

Tensor DiffPoolCoarsener::Assignment(const Tensor& h,
                                     const GraphLevel& level) const {
  return SoftmaxRows(assign_layer_.Forward(h, level));
}

CoarsenResult DiffPoolCoarsener::Forward(const Tensor& h,
                                         const GraphLevel& level) const {
  const Tensor assignment = Assignment(h, level);
  Tensor embedded = embed_layer_.Forward(h, level);
  Tensor coarse_h = MatMul(Transpose(assignment), embedded);
  Tensor coarse_adj =
      MatMul(Transpose(assignment), level.Aggregate(assignment));
  return {std::move(coarse_h), GraphLevel(std::move(coarse_adj))};
}

void DiffPoolCoarsener::CollectParameters(std::vector<Tensor>* out) const {
  assign_layer_.CollectParameters(out);
  embed_layer_.CollectParameters(out);
}

}  // namespace hap
