#ifndef HAP_TENSOR_MODULE_H_
#define HAP_TENSOR_MODULE_H_

#include <cstdint>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace hap {

/// Base class for anything with trainable parameters. Modules append their
/// parameter tensors (shared handles) to the collector; optimizers update
/// them in place.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends this module's parameters to `out`.
  virtual void CollectParameters(std::vector<Tensor>* out) const = 0;

  /// Re-seeds any training-time noise source (Gumbel soft sampling in
  /// HAP's coarsening module). The data-parallel trainers call this with a
  /// per-example seed before each forward pass so the noise an example
  /// sees depends only on its position in the epoch — never on which
  /// worker thread ran it — keeping training bit-reproducible at any
  /// thread count. Deterministic modules ignore it.
  virtual void ReseedNoise(uint64_t seed) { (void)seed; }

  /// Convenience: all parameters as a fresh vector.
  std::vector<Tensor> Parameters() const {
    std::vector<Tensor> params;
    CollectParameters(&params);
    return params;
  }

  /// Total scalar parameter count.
  int64_t NumParameters() const {
    int64_t total = 0;
    for (const Tensor& p : Parameters()) total += p.size();
    return total;
  }
};

/// Fully-connected layer y = act(x W + b) with Xavier-initialised W.
class Linear : public Module {
 public:
  /// If `bias` is false the layer is a pure linear map (used for GCont's
  /// transformation T in Eq. 13).
  Linear(int in_features, int out_features, Rng* rng, bool bias = true);

  /// x is (m, in_features); returns (m, out_features). The layer owns
  /// its activation: the product, the bias add and `activation` run as
  /// one op (Dense in tensor/ops.h).
  Tensor Forward(const Tensor& x,
                 Activation activation = Activation::kNone) const;

  void CollectParameters(std::vector<Tensor>* out) const override;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }
  int in_features() const { return weight_.rows(); }
  int out_features() const { return weight_.cols(); }

 private:
  Tensor weight_;  // (in, out)
  Tensor bias_;    // (1, out) or undefined when bias is disabled
};

}  // namespace hap

#endif  // HAP_TENSOR_MODULE_H_
