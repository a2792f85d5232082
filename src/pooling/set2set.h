#ifndef HAP_POOLING_SET2SET_H_
#define HAP_POOLING_SET2SET_H_

#include "pooling/readout.h"
#include "tensor/module.h"

namespace hap {

/// Set2Set readout (Vinyals et al., "Order Matters"), simplified: the LSTM
/// controller is replaced by a tanh recurrence q_{t+1} = tanh([q_t ‖ r_t] W)
/// over `steps` rounds of content-based soft attention. The output is the
/// final [q* ‖ r*] pair, (1, 2F) wide — the same interface and iterative
/// soft-attention behaviour the paper's Set2Set baseline relies on
/// (Sec. 2.1.1 calls it "time-consuming iterative soft-attention").
class Set2SetReadout : public Readout {
 public:
  Set2SetReadout(int in_features, Rng* rng, int steps = 3);

  Tensor Forward(const Tensor& h, const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;
  int OutFeatures(int in_features) const override { return 2 * in_features; }

 private:
  Linear update_;  // (2F -> F)
  int steps_;
  int in_features_;
};

}  // namespace hap

#endif  // HAP_POOLING_SET2SET_H_
