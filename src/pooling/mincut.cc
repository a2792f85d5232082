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

}  // namespace

MinCutPoolCoarsener::MinCutPoolCoarsener(int in_features, int num_clusters,
                                         Rng* rng)
    : assign1_(in_features, in_features, rng),
      assign2_(in_features, num_clusters, rng),
      num_clusters_(num_clusters) {}

CoarsenResult MinCutPoolCoarsener::Forward(const Tensor& h,
                                           const GraphLevel& level) const {
  const Tensor& adjacency = level.adjacency();
  Tensor assignment =
      SoftmaxRows(assign2_.Forward(Relu(assign1_.Forward(h))));  // (N, k)
  Tensor s_t = Transpose(assignment);
  CoarsenResult result{
      MatMul(s_t, h), GraphLevel(MatMul(s_t, level.Aggregate(assignment)))};

  // Normalised-cut relaxation: maximise within-cluster edge mass.
  Tensor degree_diag = Tensor::Zeros(adjacency.rows(), adjacency.cols());
  {
    // D as a constant from the (data) adjacency values.
    for (int i = 0; i < adjacency.rows(); ++i) {
      double d = 0.0;
      for (int j = 0; j < adjacency.cols(); ++j) d += adjacency.At(i, j);
      degree_diag.Set(i, i, static_cast<float>(d));
    }
  }
  Tensor cut_num = Trace(result.level.adjacency());
  Tensor cut_den = AddScalar(
      Trace(MatMul(s_t, MatMul(degree_diag, assignment))), 1e-9f);
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

  last_aux_loss_ = Add(cut_loss, ortho_loss);
  return result;
}

void MinCutPoolCoarsener::CollectParameters(std::vector<Tensor>* out) const {
  assign1_.CollectParameters(out);
  assign2_.CollectParameters(out);
}

}  // namespace hap
