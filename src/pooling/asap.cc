#include "pooling/asap.h"

#include <algorithm>
#include <utility>

#include "pooling/topk.h"
#include "tensor/ops.h"

namespace hap {

AsapCoarsener::AsapCoarsener(int in_features, double ratio, Rng* rng)
    : master_query_(in_features, in_features, rng),
      member_key_(in_features, in_features, rng),
      score_self_(in_features, 1, rng),
      score_neighbor_(in_features, 1, rng),
      ratio_(ratio) {}

CoarsenResult AsapCoarsener::Forward(const Tensor& h,
                                     const GraphLevel& level) const {
  const int n = h.rows();
  // Ego means: master_i = mean over the closed 1-hop neighbourhood.
  Tensor ego_mean = level.PropagateRowNormalized(h);  // (N, F)
  // Cluster features: attention of the master over its members, realised
  // densely with a log-mask so only 1-hop members participate.
  Tensor queries = master_query_.Forward(ego_mean);  // (N, F)
  Tensor keys = member_key_.Forward(h);              // (N, F)
  Tensor logits = MatMul(queries, Transpose(keys));  // (N, N)
  Tensor attention = SoftmaxRows(Add(LeakyRelu(logits), level.LogMask()));
  Tensor clusters = MatMul(attention, h);  // (N, F) candidate clusters
  // LEConv-style fitness: phi_i = self(x_i) - mean_j neighbor(x_j).
  Tensor fitness = Sigmoid(
      Sub(score_self_.Forward(clusters),
          level.PropagateRowNormalized(score_neighbor_.Forward(clusters))));
  const int k = TopKKeepCount(n, ratio_);
  std::vector<float> fitness_values(n);
  for (int i = 0; i < n; ++i) fitness_values[i] = fitness.At(i, 0);
  std::vector<int> keep = ArgSortDescending(fitness_values);
  keep.resize(k);
  std::sort(keep.begin(), keep.end());
  Tensor kept_h =
      ScaleRows(GatherRows(clusters, keep), GatherRows(fitness, keep));
  // A' = S^T A S with S the (soft) membership of kept clusters.
  Tensor kept_attention = GatherRows(attention, keep);  // (k, N)
  Tensor coarse_adj =
      MatMul(kept_attention, level.Aggregate(Transpose(kept_attention)));
  return {std::move(kept_h), GraphLevel(std::move(coarse_adj))};
}

void AsapCoarsener::CollectParameters(std::vector<Tensor>* out) const {
  master_query_.CollectParameters(out);
  member_key_.CollectParameters(out);
  score_self_.CollectParameters(out);
  score_neighbor_.CollectParameters(out);
}

}  // namespace hap
