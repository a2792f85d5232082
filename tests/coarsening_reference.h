// Composed-op references for the fused coarsening ops: GCont
// standardisation, MOA, Gumbel soft sampling and SymNormalize written as
// chains of generic tensor ops, each its own autograd node. The library
// runs each step as one op; the tests hold its forward memcmp-equal to
// these chains in fp32 and its gradients to theirs within rounding. Also
// the zero-laden inputs and the NaN-aware comparison those tests share.
#ifndef HAP_TESTS_COARSENING_REFERENCE_H_
#define HAP_TESTS_COARSENING_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/coarsening.h"
#include "graph/propagation.h"
#include "tensor/ops.h"

namespace hap::reference {

/// Whole-matrix standardisation, the mean and standard deviation
/// broadcast through MatMuls against Tensor::Ones.
inline Tensor Standardize(const Tensor& c) {
  const int n = c.rows(), k = c.cols();
  Tensor mean = ReduceMeanAll(c);  // (1,1)
  Tensor mean_full =
      MatMul(Tensor::Ones(n, 1), MatMul(mean, Tensor::Ones(1, k)));
  Tensor centered = Sub(c, mean_full);
  Tensor stddev =
      Sqrt(AddScalar(ReduceMeanAll(Square(centered)), 1e-6f));  // (1,1)
  Tensor stddev_full =
      MatMul(Tensor::Ones(n, 1), MatMul(stddev, Tensor::Ones(1, k)));
  return Div(centered, stddev_full);
}

/// CoarseningModule::ComputeGCont from composed ops.
inline Tensor GCont(const CoarseningModule& module, const Tensor& h) {
  std::vector<Tensor> params;
  module.CollectParameters(&params);
  Tensor c = MatMul(h, params[0]);
  return module.config().normalize_gcont ? Standardize(c) : c;
}

/// CoarseningModule::ComputeAttention from composed ops, for every
/// configuration: default, bilinear_moa off, paper-literal relaxation and
/// GCont ablated.
inline Tensor Attention(const CoarseningModule& module, const Tensor& c_or_h) {
  const CoarseningConfig& config = module.config();
  std::vector<Tensor> params;
  module.CollectParameters(&params);
  const Tensor& attn_row = params[1];
  const Tensor& attn_col = params[2];
  const int n = c_or_h.rows();
  Tensor logits;
  if (config.use_gcont) {
    const Tensor& c = c_or_h;
    HAP_CHECK_EQ(c.cols(), config.num_clusters);
    Tensor col_scores;  // (N', 1)
    if (config.paper_literal_relaxation) {
      const int effective = std::min(n, config.num_clusters);
      Tensor c_block = SliceRows(c, 0, effective);
      Tensor a2_block = SliceRows(attn_col, 0, effective);
      col_scores = MatMul(Transpose(c_block), a2_block);
    } else {
      Tensor projected = MatMul(c, attn_col);  // (N, 1)
      col_scores = MulScalar(MatMul(Transpose(c), projected),
                             1.0f / static_cast<float>(n));
    }
    Tensor row_scores = MatMul(c, attn_row);               // (N, 1)
    logits = OuterSum(row_scores, Transpose(col_scores));  // (N, N')
    if (config.bilinear_moa) {
      Tensor interaction = MulScalar(
          MatMul(c, MatMul(Transpose(c), c)), 1.0f / static_cast<float>(n));
      logits = Add(logits, interaction);
    }
  } else {
    const Tensor& h = c_or_h;
    const Tensor& seeds = params[0];
    HAP_CHECK_EQ(h.cols(), config.in_features);
    Tensor row_scores = MatMul(h, attn_row);       // (N, 1)
    Tensor col_scores = MatMul(seeds, attn_col);  // (N', 1)
    logits = OuterSum(row_scores, Transpose(col_scores));
    if (config.bilinear_moa) {
      logits = Add(logits, MatMul(h, Transpose(seeds)));
    }
  }
  return SoftmaxRows(LeakyRelu(logits, config.leaky_slope));
}

/// GumbelSoftSample from composed ops: the noise tensor is drawn whole,
/// in row-major order, before the sum.
inline Tensor GumbelSoftSample(const Tensor& adjacency, float tau, Rng* rng,
                               bool training, float eps = 1e-9f) {
  Tensor logits = Log(ClampMax(ClampMin(adjacency, eps), 1.0f / eps));
  if (training) {
    Tensor noise(adjacency.rows(), adjacency.cols());
    float* data = noise.mutable_data();
    for (int64_t i = 0; i < noise.size(); ++i) {
      data[i] = static_cast<float>(rng->Gumbel());
    }
    logits = Add(logits, noise);
  }
  return SoftmaxRows(MulScalar(logits, 1.0f / tau));
}

/// SymNormalize from composed ops.
inline Tensor SymNormalize(const Tensor& a, float eps = 1e-9f) {
  Tensor a_tilde = AddIdentity(a);
  Tensor degree = ClampMin(ReduceSumCols(a_tilde), eps);  // (n,1)
  Tensor inv_sqrt = Div(Tensor::Ones(degree.rows(), 1), Sqrt(degree));
  Tensor row_scaled = ScaleRows(a_tilde, inv_sqrt);
  return ScaleCols(row_scaled, Transpose(inv_sqrt));
}

/// Normal entries with exact zeros where the MatMul kernels skip terms:
/// rows 1, 4, 7, ... all zero (alternating +0 and -0) and a scattered -0.
inline std::vector<float> ZeroLaden(int rows, int cols, Rng* rng) {
  std::vector<float> v = Tensor::Randn(rows, cols, rng).values();
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      float& x = v[static_cast<size_t>(i) * cols + j];
      if (i % 3 == 1) x = j % 2 == 0 ? 0.0f : -0.0f;
      if ((i + j) % 5 == 0) x = -0.0f;
    }
  }
  return v;
}

/// Bit-equal element by element, except that a NaN only has to meet a
/// NaN: NaN payloads are outside the kernels' bit contract
/// (tensor/matmul_kernels.h). Which of two NaN operands a float add
/// returns follows the operand order the compiler picked.
inline bool SameBitsOrBothNan(const std::vector<float>& a,
                              const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const float x = a[i], y = b[i];
    if (std::isnan(x) || std::isnan(y)) {
      if (std::isnan(x) != std::isnan(y)) return false;
    } else if (std::memcmp(&x, &y, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

inline bool SameBitsOrBothNan(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBitsOrBothNan(a.values(), b.values());
}

}  // namespace hap::reference

#endif  // HAP_TESTS_COARSENING_REFERENCE_H_
