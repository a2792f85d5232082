#ifndef HAP_POOLING_ATTPOOL_H_
#define HAP_POOLING_ATTPOOL_H_

#include "pooling/readout.h"
#include "tensor/module.h"

namespace hap {

/// AttPool (Huang et al., ICCV'19) as a Top-K coarsener driven by attention
/// scores. Two scoring modes, matching the paper's AttPool-global and
/// AttPool-local rows in Table 3:
///  * kGlobal — softmax over s = u · tanh(H W) across all nodes.
///  * kLocal  — the same scores balanced by normalised node degree so that
///    dispersed, well-connected nodes survive (the "local attention"
///    variant that "accesses node degree information").
/// The kept nodes aggregate their softmax-weighted neighbourhood features.
class AttPoolCoarsener : public Coarsener {
 public:
  enum class Mode { kGlobal, kLocal };

  AttPoolCoarsener(int in_features, double ratio, Mode mode, Rng* rng);

  CoarsenResult Forward(const Tensor& h,
                        const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  Linear transform_;  // W: (F, F)
  Tensor context_;    // u: (F, 1)
  double ratio_;
  Mode mode_;
};

}  // namespace hap

#endif  // HAP_POOLING_ATTPOOL_H_
