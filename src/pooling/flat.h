#ifndef HAP_POOLING_FLAT_H_
#define HAP_POOLING_FLAT_H_

#include "pooling/readout.h"
#include "tensor/module.h"

namespace hap {

/// Element-wise sum over nodes (GIN-style SumPool; the strongest universal
/// baseline in Table 3).
class SumReadout : public Readout {
 public:
  Tensor Forward(const Tensor& h, const GraphLevel& level) const override;
  bool SupportsBatched() const override { return true; }
  Tensor ForwardBatched(const Tensor& h,
                        const BatchedLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;
};

/// Element-wise mean over nodes.
class MeanReadout : public Readout {
 public:
  Tensor Forward(const Tensor& h, const GraphLevel& level) const override;
  bool SupportsBatched() const override { return true; }
  Tensor ForwardBatched(const Tensor& h,
                        const BatchedLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;
};

/// Element-wise max over nodes.
class MaxReadout : public Readout {
 public:
  Tensor Forward(const Tensor& h, const GraphLevel& level) const override;
  bool SupportsBatched() const override { return true; }
  Tensor ForwardBatched(const Tensor& h,
                        const BatchedLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;
};

/// SimGNN-style content attention (MeanAttPool in Table 3): the graph
/// content c = tanh(mean(H) W); per-node weights a_i = sigmoid(h_i · c);
/// output = Σ_i a_i h_i.
class MeanAttReadout : public Readout {
 public:
  MeanAttReadout(int in_features, Rng* rng);
  Tensor Forward(const Tensor& h, const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  Tensor weight_;  // (F, F)
};

/// GG-NN soft attention (Eq. 4): gate_i = sigmoid(f(h_i)); out =
/// Σ_i gate_i ⊙ g(h_i). Used as the "SoftAtt" universal readout.
class GatedSumReadout : public Readout {
 public:
  GatedSumReadout(int in_features, Rng* rng);
  Tensor Forward(const Tensor& h, const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  Linear gate_;
  Linear value_;
};

}  // namespace hap

#endif  // HAP_POOLING_FLAT_H_
