#include "graph/batched_graph.h"

#include <cstring>

#include "common/check.h"

namespace hap {

BatchedGraph BatchGraphs(const std::vector<Tensor>& features,
                         const std::vector<GraphLevel>& levels) {
  HAP_CHECK(!features.empty()) << "cannot batch zero graphs";
  HAP_CHECK_EQ(features.size(), levels.size());

  const int feature_dim = features.front().cols();
  std::vector<int> sizes;
  sizes.reserve(features.size());
  int total = 0;
  for (size_t g = 0; g < features.size(); ++g) {
    HAP_CHECK_EQ(features[g].cols(), feature_dim)
        << "graph " << g << " has a different feature width";
    HAP_CHECK(!features[g].requires_grad() && features[g].impl().parents.empty())
        << "batched features must be gradient-free leaves";
    HAP_CHECK_EQ(features[g].rows(), levels[g].num_nodes())
        << "graph " << g << ": features and adjacency disagree on node count";
    sizes.push_back(features[g].rows());
    total += features[g].rows();
  }

  BatchedGraph batch;
  batch.level.segments = SegmentSpec::FromSizes(sizes);
  batch.level.levels = levels;

  // Plain data copy — the concatenated tensor is a fresh leaf, not an op
  // result, so batching never extends any autograd tape.
  batch.h = Tensor(total, feature_dim);
  float* dst = batch.h.mutable_data();
  for (const Tensor& f : features) {
    if (f.size() > 0) {
      std::memcpy(dst, f.data(), static_cast<size_t>(f.size()) * sizeof(float));
      dst += f.size();
    }
  }
  return batch;
}

}  // namespace hap
