#ifndef HAP_POOLING_ASAP_H_
#define HAP_POOLING_ASAP_H_

#include "pooling/readout.h"
#include "tensor/module.h"

namespace hap {

/// ASAP (Ranjan et al., AAAI'20), simplified to its two key mechanisms:
///  1. every node forms a candidate cluster by master-attention over its
///     1-hop ego network (the master is the ego mean, Eq. 6-7 family);
///  2. candidate clusters are scored with a LEConv-style local linear
///     scorer and only the top ceil(rN) survive; A' = Sᵀ A S restricted to
///     the survivors.
/// Like the original, selection can still orphan clusters — the behaviour
/// the paper criticises in Sec. 2.1.3.
class AsapCoarsener : public Coarsener {
 public:
  AsapCoarsener(int in_features, double ratio, Rng* rng);

  CoarsenResult Forward(const Tensor& h,
                        const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  Linear master_query_;   // attention query from the ego mean
  Linear member_key_;     // key from member features
  Linear score_self_;     // LEConv-ish scoring
  Linear score_neighbor_;
  double ratio_;
};

}  // namespace hap

#endif  // HAP_POOLING_ASAP_H_
