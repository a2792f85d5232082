#include "pooling/topk.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "tensor/ops.h"

namespace hap {

int TopKKeepCount(int num_nodes, double ratio, int min_nodes) {
  const int k = static_cast<int>(std::ceil(ratio * num_nodes));
  return std::min(num_nodes, std::max(min_nodes, k));
}

namespace {

/// Shared tail of gPool/SAGPool: keep the top-k scored nodes, gate their
/// features by the (activated) scores, and slice the adjacency.
CoarsenResult KeepTopK(const Tensor& h, const Tensor& adjacency,
                       const Tensor& gates, double ratio) {
  const int n = h.rows();
  const int k = TopKKeepCount(n, ratio);
  std::vector<float> score_values(n);
  for (int i = 0; i < n; ++i) score_values[i] = gates.At(i, 0);
  std::vector<int> keep = ArgSortDescending(score_values);
  keep.resize(k);
  std::sort(keep.begin(), keep.end());  // Preserve original node order.
  Tensor kept_h = ScaleRows(GatherRows(h, keep), GatherRows(gates, keep));
  // A' = A[keep][:, keep]; gather rows then columns via transpose.
  Tensor rows = GatherRows(adjacency, keep);
  Tensor kept_adj = Transpose(GatherRows(Transpose(rows), keep));
  return {std::move(kept_h), GraphLevel(std::move(kept_adj))};
}

}  // namespace

GPoolCoarsener::GPoolCoarsener(int in_features, double ratio, Rng* rng)
    : projection_(Tensor::Xavier(in_features, 1, rng)), ratio_(ratio) {}

CoarsenResult GPoolCoarsener::Forward(const Tensor& h,
                                      const GraphLevel& level) const {
  // y = H p / ||p||
  Tensor norm = Sqrt(AddScalar(ReduceSumAll(Square(projection_)), 1e-12f));
  Tensor scores = MatMul(h, projection_);  // (N, 1)
  // Divide by the scalar norm via broadcasting against a same-shaped tensor.
  Tensor norm_column = MatMul(Tensor::Ones(h.rows(), 1), norm);
  Tensor gates = Sigmoid(Div(scores, norm_column));
  return KeepTopK(h, level.adjacency(), gates, ratio_);
}

void GPoolCoarsener::CollectParameters(std::vector<Tensor>* out) const {
  out->push_back(projection_);
}

SagPoolCoarsener::SagPoolCoarsener(int in_features, double ratio, Rng* rng)
    : score_layer_(in_features, 1, rng, Activation::kTanh), ratio_(ratio) {}

CoarsenResult SagPoolCoarsener::Forward(const Tensor& h,
                                        const GraphLevel& level) const {
  Tensor gates = score_layer_.Forward(h, level);  // (N, 1), tanh scores
  return KeepTopK(h, level.adjacency(), gates, ratio_);
}

void SagPoolCoarsener::CollectParameters(std::vector<Tensor>* out) const {
  score_layer_.CollectParameters(out);
}

SortPoolReadout::SortPoolReadout(int k) : k_(k) { HAP_CHECK_GE(k, 1); }

Tensor SortPoolReadout::Forward(const Tensor& h,
                                const GraphLevel& level) const {
  (void)level;
  const int n = h.rows(), f = h.cols();
  std::vector<float> last_channel(n);
  for (int i = 0; i < n; ++i) last_channel[i] = h.At(i, f - 1);
  std::vector<int> order = ArgSortDescending(last_channel);
  order.resize(std::min(n, k_));
  Tensor kept = GatherRows(h, order);
  if (kept.rows() < k_) {
    kept = ConcatRows({kept, Tensor::Zeros(k_ - kept.rows(), f)});
  }
  return Reshape(kept, 1, k_ * f);
}

void SortPoolReadout::CollectParameters(std::vector<Tensor>* out) const {
  (void)out;
}

}  // namespace hap
