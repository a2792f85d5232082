#include "tensor/module.h"

#include "tensor/ops.h"

namespace hap {

Linear::Linear(int in_features, int out_features, Rng* rng, bool bias)
    : weight_(Tensor::Xavier(in_features, out_features, rng)) {
  if (bias) {
    bias_ = Tensor::Zeros(1, out_features, /*requires_grad=*/true);
  }
}

Tensor Linear::Forward(const Tensor& x, Activation activation) const {
  return Dense(x, weight_, bias_, activation);
}

void Linear::CollectParameters(std::vector<Tensor>* out) const {
  out->push_back(weight_);
  if (bias_.defined()) out->push_back(bias_);
}

}  // namespace hap
