#include "pooling/structpool.h"

#include <utility>

#include "tensor/ops.h"

namespace hap {

StructPoolCoarsener::StructPoolCoarsener(int in_features, int num_clusters,
                                         Rng* rng, int iterations)
    : unary_(in_features, num_clusters, rng),
      pairwise_(Tensor::Xavier(num_clusters, num_clusters, rng)),
      num_clusters_(num_clusters),
      iterations_(iterations) {}

CoarsenResult StructPoolCoarsener::Forward(const Tensor& h,
                                           const GraphLevel& level) const {
  Tensor unary = unary_.Forward(h);      // (N, N')
  Tensor q = SoftmaxRows(unary);
  for (int it = 0; it < iterations_; ++it) {
    // Message passing: neighbours vote for compatible labels.
    Tensor message = MatMul(level.Aggregate(q), pairwise_);
    q = SoftmaxRows(Add(unary, message));
  }
  Tensor coarse_h = MatMul(Transpose(q), h);
  Tensor coarse_adj = MatMul(Transpose(q), level.Aggregate(q));
  return {std::move(coarse_h), GraphLevel(std::move(coarse_adj))};
}

void StructPoolCoarsener::CollectParameters(std::vector<Tensor>* out) const {
  unary_.CollectParameters(out);
  out->push_back(pairwise_);
}

}  // namespace hap
