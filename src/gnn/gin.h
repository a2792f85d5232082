#ifndef HAP_GNN_GIN_H_
#define HAP_GNN_GIN_H_

#include "gnn/gcn.h"
#include "graph/graph_level.h"
#include "tensor/module.h"

namespace hap {

/// Graph Isomorphism Network layer (Xu et al., "How Powerful are GNNs?" —
/// the paper's SumPool baseline [36] builds on it):
///   H' = MLP( (1 + eps) H + A H ),  MLP = Linear-ReLU-Linear.
/// Sum aggregation preserves feature multiplicities that mean/spectral
/// normalisation washes out (Sec. 2.1.1), which matters on molecule-like
/// corpora where the discriminating substructure touches few nodes.
class GinLayer : public Module {
 public:
  GinLayer(int in_features, int out_features, Rng* rng,
           Activation activation = Activation::kRelu, float eps = 0.0f);

  Tensor Forward(const Tensor& h, const GraphLevel& level) const;

  /// Batched forward (see GcnLayer::ForwardBatched): per-segment sum
  /// aggregation, fused MLP GEMMs.
  Tensor ForwardBatched(const Tensor& h, const BatchedLevel& level) const;

  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  Linear mlp1_;
  Linear mlp2_;
  Activation activation_;
  float eps_;
};

}  // namespace hap

#endif  // HAP_GNN_GIN_H_
