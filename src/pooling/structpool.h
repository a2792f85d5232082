#ifndef HAP_POOLING_STRUCTPOOL_H_
#define HAP_POOLING_STRUCTPOOL_H_

#include "pooling/readout.h"
#include "tensor/module.h"

namespace hap {

/// StructPool (Yuan & Ji, ICLR'20), approximated by its mean-field
/// inference view: cluster assignments are a CRF whose unary potentials
/// come from node features and whose pairwise potentials encourage linked
/// nodes to share a cluster. We run `iterations` mean-field updates
///   Q ← softmax( U + A Q W_pair )
/// which is the standard relaxation of minimising the Gibbs energy the
/// original paper optimises.
class StructPoolCoarsener : public Coarsener {
 public:
  StructPoolCoarsener(int in_features, int num_clusters, Rng* rng,
                      int iterations = 2);

  CoarsenResult Forward(const Tensor& h,
                        const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  Linear unary_;       // (F -> N')
  Tensor pairwise_;    // (N', N') label-compatibility matrix
  int num_clusters_;
  int iterations_;
};

}  // namespace hap

#endif  // HAP_POOLING_STRUCTPOOL_H_
