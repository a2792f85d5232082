#include "pooling/flat.h"

#include "tensor/ops.h"
#include "tensor/segment_ops.h"

namespace hap {

Tensor SumReadout::Forward(const Tensor& h, const GraphLevel& level) const {
  (void)level;
  return ReduceSumRows(h);
}

Tensor SumReadout::ForwardBatched(const Tensor& h,
                                  const BatchedLevel& level) const {
  return SegmentSum(h, level.segments);
}

void SumReadout::CollectParameters(std::vector<Tensor>* out) const {
  (void)out;
}

Tensor MeanReadout::Forward(const Tensor& h, const GraphLevel& level) const {
  (void)level;
  return ReduceMeanRows(h);
}

Tensor MeanReadout::ForwardBatched(const Tensor& h,
                                   const BatchedLevel& level) const {
  return SegmentMean(h, level.segments);
}

void MeanReadout::CollectParameters(std::vector<Tensor>* out) const {
  (void)out;
}

Tensor MaxReadout::Forward(const Tensor& h, const GraphLevel& level) const {
  (void)level;
  return ReduceMaxRows(h);
}

Tensor MaxReadout::ForwardBatched(const Tensor& h,
                                  const BatchedLevel& level) const {
  return SegmentMax(h, level.segments);
}

void MaxReadout::CollectParameters(std::vector<Tensor>* out) const {
  (void)out;
}

MeanAttReadout::MeanAttReadout(int in_features, Rng* rng)
    : weight_(Tensor::Xavier(in_features, in_features, rng)) {}

Tensor MeanAttReadout::Forward(const Tensor& h,
                               const GraphLevel& level) const {
  (void)level;
  Tensor content = Tanh(MatMul(ReduceMeanRows(h), weight_));  // (1, F)
  Tensor scores = Sigmoid(MatMul(h, Transpose(content)));     // (N, 1)
  return MatMul(Transpose(scores), h);                        // (1, F)
}

void MeanAttReadout::CollectParameters(std::vector<Tensor>* out) const {
  out->push_back(weight_);
}

GatedSumReadout::GatedSumReadout(int in_features, Rng* rng)
    : gate_(in_features, 1, rng), value_(in_features, in_features, rng) {}

Tensor GatedSumReadout::Forward(const Tensor& h,
                                const GraphLevel& level) const {
  (void)level;
  Tensor gates = Sigmoid(gate_.Forward(h));   // (N, 1)
  Tensor values = value_.Forward(h, Activation::kTanh);  // (N, F)
  return ReduceSumRows(ScaleRows(values, gates));
}

void GatedSumReadout::CollectParameters(std::vector<Tensor>* out) const {
  gate_.CollectParameters(out);
  value_.CollectParameters(out);
}

}  // namespace hap
