#include "matching/simgnn.h"

#include "tensor/ops.h"

namespace hap {

SimGnnModel::SimGnnModel(int feature_dim, int hidden_dim, int ntn_slices,
                         Rng* rng)
    : encoder_(EncoderKind::kGcn, {feature_dim, hidden_dim, hidden_dim}, rng),
      readout_(hidden_dim, rng),
      hidden_dim_(hidden_dim),
      slices_(ntn_slices),
      ntn_bilinear_(Tensor::Xavier(hidden_dim, ntn_slices * hidden_dim, rng)),
      ntn_linear_(2 * hidden_dim, ntn_slices, rng),
      score_(ntn_slices, 1, rng) {}

Tensor SimGnnModel::EmbedOne(const Tensor& h, const GraphLevel& level) const {
  return readout_.Forward(encoder_.Forward(h, level), level);
}

Tensor SimGnnModel::PredictSimilarity(const Tensor& h1, const GraphLevel& g1,
                                      const Tensor& h2,
                                      const GraphLevel& g2) const {
  Tensor e1 = EmbedOne(h1, g1);  // (1, F)
  Tensor e2 = EmbedOne(h2, g2);  // (1, F)
  // Bilinear slices: (e1 W) reshaped to (K, F), times e2ᵀ -> (K, 1).
  Tensor bilinear = MatMul(
      Reshape(MatMul(e1, ntn_bilinear_), slices_, hidden_dim_), Transpose(e2));
  Tensor linear = Transpose(ntn_linear_.Forward(ConcatCols(e1, e2)));  // (K,1)
  Tensor interaction = Relu(Add(bilinear, linear));
  return Sigmoid(score_.Forward(Transpose(interaction)));
}

void SimGnnModel::CollectParameters(std::vector<Tensor>* out) const {
  encoder_.CollectParameters(out);
  readout_.CollectParameters(out);
  out->push_back(ntn_bilinear_);
  ntn_linear_.CollectParameters(out);
  score_.CollectParameters(out);
}

}  // namespace hap
