#ifndef HAP_GNN_GAT_H_
#define HAP_GNN_GAT_H_

#include "graph/batched_graph.h"
#include "graph/graph_level.h"
#include "tensor/module.h"
#include "tensor/tensor.h"

namespace hap {

/// Graph attention layer (Veličković et al.; Eq. 11 in the paper).
///
/// Attention logits e_ij = LeakyReLU(a₁ᵀ W h_i + a₂ᵀ W h_j) are restricted
/// to the 1-hop neighbourhood by adding log(Ã_ij + ε): edges with weight 1
/// contribute 0, missing edges contribute ≈ -20.7 (an effective -inf), and
/// weighted coarsened edges bias attention by log-weight — which keeps the
/// layer differentiable with respect to A' on coarsened levels.
class GatLayer : public Module {
 public:
  GatLayer(int in_features, int out_features, Rng* rng,
           Activation activation = Activation::kRelu,
           float leaky_slope = 0.2f);

  /// h: (N, in); level views the (N, N) raw-weight adjacency and supplies
  /// the cached neighborhood log mask.
  Tensor Forward(const Tensor& h, const GraphLevel& level) const;

  /// Batched forward: W and the attention-score products run as fused
  /// GEMMs over all graphs; the segment-masked attention (per-graph
  /// softmax behind each level's log mask) runs per segment, so scores
  /// never leak across graphs.
  Tensor ForwardBatched(const Tensor& h, const BatchedLevel& level) const;

  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  Linear linear_;        // W, no bias (bias folded into attention scores)
  Tensor attn_self_;     // a₁: (out, 1)
  Tensor attn_neighbor_; // a₂: (out, 1)
  Activation activation_;
  float leaky_slope_;
};

}  // namespace hap

#endif  // HAP_GNN_GAT_H_
