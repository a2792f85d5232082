#ifndef HAP_GRAPH_BATCHED_GRAPH_H_
#define HAP_GRAPH_BATCHED_GRAPH_H_

#include <vector>

#include "graph/graph_level.h"
#include "tensor/segment_ops.h"

namespace hap {

// Cross-graph batched inference substrate: N distinct graphs laid out as
// one concatenated node tensor plus a segment-indexed adjacency. Rather
// than materialising a block-diagonal adjacency (dense O((Σn)²) zeros), each
// graph keeps its own GraphLevel — with its warmed dense/CSR caches — and
// the SegmentSpec records which row range of the concatenated tensors
// belongs to which graph. Structure-independent layers (linears, biases,
// activations, readout reductions) then run as ONE kernel invocation over
// all graphs, while structure-dependent products (propagation, attention)
// run per segment against the per-graph operators. See docs/BATCHING.md.

/// One level of a batched hierarchy: the row partition of the concatenated
/// node tensor plus each graph's adjacency view at this level.
struct BatchedLevel {
  SegmentSpec segments;
  std::vector<GraphLevel> levels;

  int num_graphs() const { return segments.num_segments(); }
};

/// A batch of distinct graphs, ready for one batched forward pass.
struct BatchedGraph {
  /// Concatenated node features, (total_nodes, feature_dim). A gradient-
  /// free leaf: slicing it back apart produces untaped per-graph views.
  Tensor h;
  BatchedLevel level;

  int num_graphs() const { return level.num_graphs(); }
  int feature_dim() const { return h.cols(); }
  int total_nodes() const { return h.rows(); }
};

/// Concatenates per-graph features and levels into one BatchedGraph, in
/// order. All feature tensors must share one width and must be gradient-
/// free leaves (dataset tensors are); features[i].rows() must match
/// levels[i].num_nodes().
BatchedGraph BatchGraphs(const std::vector<Tensor>& features,
                         const std::vector<GraphLevel>& levels);

}  // namespace hap

#endif  // HAP_GRAPH_BATCHED_GRAPH_H_
