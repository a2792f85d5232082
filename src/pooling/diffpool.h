#ifndef HAP_POOLING_DIFFPOOL_H_
#define HAP_POOLING_DIFFPOOL_H_

#include "gnn/gcn.h"
#include "pooling/readout.h"

namespace hap {

/// DiffPool (Ying et al., NeurIPS'18): a dense differentiable assignment
///   S = softmax_rows( GNN_assign(H, A) )   (N x N')
///   H' = Sᵀ GNN_embed(H, A),  A' = Sᵀ A S.
/// Assignment is computed from the 1-hop GCN — precisely the "fixed 1-hop
/// neighbourhood" grouping the paper contrasts HAP against (Fig. 1a).
class DiffPoolCoarsener : public Coarsener {
 public:
  /// `num_clusters` is the fixed output size N'.
  DiffPoolCoarsener(int in_features, int num_clusters, Rng* rng);

  CoarsenResult Forward(const Tensor& h,
                        const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;

  int num_clusters() const { return num_clusters_; }

  /// The assignment matrix S (N x N') Forward() pools `h` on `level` with,
  /// computed afresh (tests, visualisation): Forward() keeps no copy.
  Tensor Assignment(const Tensor& h, const GraphLevel& level) const;

 private:
  GcnLayer assign_layer_;
  GcnLayer embed_layer_;
  int num_clusters_;
};

}  // namespace hap

#endif  // HAP_POOLING_DIFFPOOL_H_
