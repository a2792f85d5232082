#ifndef HAP_TRAIN_PREPARED_H_
#define HAP_TRAIN_PREPARED_H_

#include <vector>

#include "graph/datasets.h"
#include "graph/featurize.h"
#include "graph/graph.h"
#include "graph/graph_level.h"
#include "tensor/tensor.h"

namespace hap {

/// A graph pre-converted to its inputs so training loops do not
/// re-featurise every epoch. `level` is the graph's only structure: a
/// gradient-free leaf, so it is cacheable. The operators Propagate and
/// Aggregate read on its dispatch side are built here (WarmCaches), any
/// other on its first read, and each is built once and reused across every
/// epoch, eval pass, and data-parallel worker.
/// Sparse-native graphs (docs/SPARSE.md) carry a CSR-backed `level`;
/// consumers that need the dense tensor must check
/// level.has_dense_adjacency() first.
struct PreparedGraph {
  Tensor h;          // (N, F) initial node features
  GraphLevel level;  // the (N, N) raw-weight adjacency, dense or CSR
  int label = -1;
};

/// Featurises one graph.
PreparedGraph PrepareGraph(const Graph& g, const FeatureSpec& spec);

/// Featurises a whole classification dataset, preserving order.
std::vector<PreparedGraph> PrepareDataset(const GraphDataset& dataset);

/// Featurises an arbitrary graph list with a shared spec.
std::vector<PreparedGraph> PrepareGraphs(const std::vector<Graph>& graphs,
                                         const FeatureSpec& spec);

}  // namespace hap

#endif  // HAP_TRAIN_PREPARED_H_
