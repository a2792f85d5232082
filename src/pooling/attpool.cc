#include "pooling/attpool.h"

#include <algorithm>
#include <utility>

#include "pooling/topk.h"
#include "tensor/ops.h"

namespace hap {

AttPoolCoarsener::AttPoolCoarsener(int in_features, double ratio, Mode mode,
                                   Rng* rng)
    : transform_(in_features, in_features, rng),
      context_(Tensor::Xavier(in_features, 1, rng)),
      ratio_(ratio),
      mode_(mode) {}

CoarsenResult AttPoolCoarsener::Forward(const Tensor& h,
                                        const GraphLevel& level) const {
  const Tensor& adjacency = level.adjacency();
  const int n = h.rows();
  Tensor scores =
      MatMul(transform_.Forward(h, Activation::kTanh), context_);  // (N, 1)
  Tensor attention = SoftmaxRows(Transpose(scores));              // (1, N)
  std::vector<float> importance(n);
  if (mode_ == Mode::kGlobal) {
    for (int i = 0; i < n; ++i) importance[i] = attention.At(0, i);
  } else {
    // Local mode: weight attention by normalised degree to keep the
    // selection dispersed across the graph.
    double max_degree = 1.0;
    std::vector<double> degrees(n, 0.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) degrees[i] += adjacency.At(i, j);
      max_degree = std::max(max_degree, degrees[i]);
    }
    for (int i = 0; i < n; ++i) {
      importance[i] = attention.At(0, i) *
                      static_cast<float>(0.5 + 0.5 * degrees[i] / max_degree);
    }
  }
  std::vector<int> keep = ArgSortDescending(importance);
  keep.resize(TopKKeepCount(n, ratio_));
  std::sort(keep.begin(), keep.end());
  // Kept nodes aggregate attention-weighted 1-hop features before slicing.
  Tensor aggregated =
      level.PropagateRowNormalized(ScaleRows(h, Transpose(attention)));
  Tensor kept_h = GatherRows(aggregated, keep);
  Tensor rows = GatherRows(adjacency, keep);
  Tensor kept_adj = Transpose(GatherRows(Transpose(rows), keep));
  return {std::move(kept_h), GraphLevel(std::move(kept_adj))};
}

void AttPoolCoarsener::CollectParameters(std::vector<Tensor>* out) const {
  transform_.CollectParameters(out);
  out->push_back(context_);
}

}  // namespace hap
