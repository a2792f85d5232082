#include "pooling/mincut.h"

#include <cmath>
#include <utility>

#include "tensor/ops.h"

namespace hap {

namespace {

/// Trace of a square tensor as a 1x1 tensor (differentiable).
Tensor Trace(const Tensor& square) {
  Tensor eye = Tensor::Identity(square.rows());
  return ReduceSumAll(Mul(square, eye));
}

/// The diagonal of D as an (N, 1) constant: each row of the adjacency
/// values summed in double.
Tensor Degrees(const Tensor& adjacency) {
  Tensor degrees(adjacency.rows(), 1);
  for (int i = 0; i < adjacency.rows(); ++i) {
    double d = 0.0;
    for (int j = 0; j < adjacency.cols(); ++j) d += adjacency.At(i, j);
    degrees.Set(i, 0, static_cast<float>(d));
  }
  return degrees;
}

}  // namespace

MinCutPoolCoarsener::MinCutPoolCoarsener(int in_features, int num_clusters,
                                         Rng* rng)
    : assign1_(in_features, in_features, rng),
      assign2_(in_features, num_clusters, rng),
      num_clusters_(num_clusters) {}

Tensor MinCutPoolCoarsener::Assignment(const Tensor& h) const {
  return SoftmaxRows(assign2_.Forward(Relu(assign1_.Forward(h))));
}

CoarsenResult MinCutPoolCoarsener::Forward(const Tensor& h,
                                           const GraphLevel& level) const {
  const Tensor assignment = Assignment(h);  // (N, k)
  const Tensor s_t = Transpose(assignment);
  return {MatMul(s_t, h),
          GraphLevel(MatMul(s_t, level.Aggregate(assignment)))};
}

Tensor MinCutPoolCoarsener::AuxiliaryLoss(const Tensor& h,
                                          const GraphLevel& level) const {
  const Tensor assignment = Assignment(h);
  const Tensor s_t = Transpose(assignment);

  // Normalised-cut relaxation: maximise within-cluster edge mass.
  // Tr(SᵀDS) = Σᵢ dᵢ‖Sᵢ‖², so D never becomes an N×N matrix.
  Tensor cut_num = Trace(MatMul(s_t, level.Aggregate(assignment)));
  Tensor cut_den = AddScalar(
      ReduceSumAll(ScaleRows(Square(assignment), Degrees(level.adjacency()))),
      1e-9f);
  Tensor cut_loss = Neg(Div(cut_num, cut_den));

  // Orthogonality: SᵀS/||SᵀS||_F should approach I/sqrt(k).
  Tensor gram = MatMul(s_t, assignment);  // (k, k)
  Tensor gram_norm = Sqrt(AddScalar(ReduceSumAll(Square(gram)), 1e-12f));
  Tensor normalized =
      Div(gram, MatMul(Tensor::Ones(num_clusters_, 1),
                       MatMul(gram_norm, Tensor::Ones(1, num_clusters_))));
  Tensor target = MulScalar(Tensor::Identity(num_clusters_),
                            1.0f / std::sqrt(static_cast<float>(num_clusters_)));
  Tensor ortho_loss =
      Sqrt(AddScalar(ReduceSumAll(Square(Sub(normalized, target))), 1e-12f));

  return Add(cut_loss, ortho_loss);
}

void MinCutPoolCoarsener::CollectParameters(std::vector<Tensor>* out) const {
  assign1_.CollectParameters(out);
  assign2_.CollectParameters(out);
}

}  // namespace hap
