#ifndef HAP_POOLING_MINCUT_H_
#define HAP_POOLING_MINCUT_H_

#include "pooling/readout.h"
#include "tensor/module.h"

namespace hap {

/// MinCutPool (Bianchi, Grattarola & Alippi, ICML'20) — the unsupervised
/// pooling method of the paper's related work (Sec. 2.2): the cluster
/// assignment S = softmax(MLP(H)) is optimised with two auxiliary terms on
/// top of the task loss,
///   L_cut   = -Tr(Sᵀ A S) / Tr(Sᵀ D S)            (relaxed normalised cut)
///   L_ortho = ‖SᵀS/‖SᵀS‖_F − I/√k‖_F              (balanced clusters),
/// while H' = SᵀH, A' = SᵀAS like DiffPool. Forward() computes only H' and
/// A'; a trainer that optimises the clustering objective adds
/// AuxiliaryLoss() to its task loss.
class MinCutPoolCoarsener : public Coarsener {
 public:
  MinCutPoolCoarsener(int in_features, int num_clusters, Rng* rng);

  CoarsenResult Forward(const Tensor& h,
                        const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;

  /// L_cut + L_ortho for the assignment Forward() computes on the same
  /// `h` and `level`, differentiable with respect to the weights. D is a
  /// constant of the adjacency's values, so `level` must be dense-backed.
  Tensor AuxiliaryLoss(const Tensor& h, const GraphLevel& level) const;

  int num_clusters() const { return num_clusters_; }

 private:
  /// S = softmax(MLP(H)), (N, k).
  Tensor Assignment(const Tensor& h) const;

  Linear assign1_;
  Linear assign2_;
  int num_clusters_;
};

}  // namespace hap

#endif  // HAP_POOLING_MINCUT_H_
