#include "matching/gmn.h"

#include "tensor/ops.h"

namespace hap {

GmnModel::GmnModel(const GmnConfig& config, Pooling pooling, Rng* rng)
    : config_(config),
      pooling_(pooling),
      input_proj_(config.feature_dim, config.hidden_dim, rng) {
  for (int layer = 0; layer < config_.layers; ++layer) {
    update_layers_.push_back(
        std::make_unique<Linear>(3 * config_.hidden_dim, config_.hidden_dim, rng));
  }
  if (pooling_ == Pooling::kGatedSum) {
    gate_ = std::make_unique<Linear>(config_.hidden_dim, 1, rng);
    value_ = std::make_unique<Linear>(config_.hidden_dim, config_.hidden_dim, rng);
  } else {
    CoarseningConfig cc;
    cc.in_features = config_.hidden_dim;
    cc.num_clusters = config_.hap_clusters;
    hap_coarsener_ = std::make_unique<CoarseningModule>(cc, rng);
  }
}

std::pair<Tensor, Tensor> GmnModel::Propagate(const Tensor& h1,
                                              const GraphLevel& g1,
                                              const Tensor& h2,
                                              const GraphLevel& g2,
                                              int layer) const {
  auto update_one = [&](const Tensor& self, const GraphLevel& level,
                        const Tensor& other) {
    // Cached row-normalized operator: computed once per level instead of
    // once per propagation layer.
    Tensor neighbor = level.PropagateRowNormalized(self);
    // Cross-graph attention: each node attends over the partner graph.
    Tensor attention = SoftmaxRows(MatMul(self, Transpose(other)));
    Tensor mismatch = Sub(self, MatMul(attention, other));
    Tensor joined = ConcatCols(ConcatCols(self, neighbor), mismatch);
    return update_layers_[layer]->Forward(joined, Activation::kRelu);
  };
  return {update_one(h1, g1, h2), update_one(h2, g2, h1)};
}

Tensor GmnModel::Pool(const Tensor& h, const GraphLevel& level) const {
  if (pooling_ == Pooling::kGatedSum) {
    Tensor gates = Sigmoid(gate_->Forward(h));
    Tensor values = value_->Forward(h, Activation::kTanh);
    return ReduceSumRows(ScaleRows(values, gates));
  }
  CoarsenResult coarse = hap_coarsener_->Forward(h, level);
  return ReduceMeanRows(coarse.h);
}

std::pair<Tensor, Tensor> GmnModel::EmbedPair(const Tensor& h1,
                                              const GraphLevel& g1,
                                              const Tensor& h2,
                                              const GraphLevel& g2) const {
  Tensor x1 = input_proj_.Forward(h1, Activation::kRelu);
  Tensor x2 = input_proj_.Forward(h2, Activation::kRelu);
  for (int layer = 0; layer < config_.layers; ++layer) {
    auto [next1, next2] = Propagate(x1, g1, x2, g2, layer);
    x1 = next1;
    x2 = next2;
  }
  return {Pool(x1, g1), Pool(x2, g2)};
}

void GmnModel::CollectParameters(std::vector<Tensor>* out) const {
  input_proj_.CollectParameters(out);
  for (const auto& layer : update_layers_) layer->CollectParameters(out);
  if (gate_) gate_->CollectParameters(out);
  if (value_) value_->CollectParameters(out);
  if (hap_coarsener_) hap_coarsener_->CollectParameters(out);
}

void GmnModel::set_training(bool training) {
  if (hap_coarsener_) hap_coarsener_->set_training(training);
}

}  // namespace hap
