#include "pooling/set2set.h"

#include "tensor/ops.h"

namespace hap {

Set2SetReadout::Set2SetReadout(int in_features, Rng* rng, int steps)
    : update_(2 * in_features, in_features, rng),
      steps_(steps),
      in_features_(in_features) {}

Tensor Set2SetReadout::Forward(const Tensor& h,
                               const GraphLevel& level) const {
  (void)level;
  Tensor query = Tensor::Zeros(1, in_features_);
  Tensor readout = Tensor::Zeros(1, in_features_);
  for (int t = 0; t < steps_; ++t) {
    Tensor logits = MatMul(h, Transpose(query));      // (N, 1)
    Tensor attention = SoftmaxRows(Transpose(logits));  // (1, N)
    readout = MatMul(attention, h);                   // (1, F)
    query = update_.Forward(ConcatCols(query, readout), Activation::kTanh);
  }
  return ConcatCols(query, readout);
}

void Set2SetReadout::CollectParameters(std::vector<Tensor>* out) const {
  update_.CollectParameters(out);
}

}  // namespace hap
