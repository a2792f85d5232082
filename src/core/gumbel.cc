#include "core/gumbel.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hap {

Tensor GumbelSoftSample(const Tensor& adjacency, float tau, Rng* rng,
                        bool training, float eps) {
  HAP_CHECK_GT(tau, 0.0f);
  HAP_CHECK_GT(eps, 0.0f);
  if (training) HAP_CHECK(rng != nullptr);
  // Clamp to [eps, 1/eps] before the log. The floor turns all-zero rows
  // (isolated nodes) into finite uniform logits of log(eps)/tau; the
  // ceiling keeps hostile or overflowed weights (inf, or anything above
  // 1/eps) finite — without it an inf entry survives the log, the row max
  // becomes inf, and the softmax emits NaN for the whole row. NaN entries
  // compare false in both clamps and land on the floor (treated as
  // no-edge). Ordinary weights in (eps, 1/eps) pass through bit-identical
  // with pass-through gradient, so training trajectories are unchanged.
  const int rows = adjacency.rows(), cols = adjacency.cols();
  const float ceil = 1.0f / eps;
  const float inv_tau = 1.0f / tau;
  const float* a = adjacency.data();
  Tensor out(rows, cols);
  float* y = out.mutable_data();
  // One pass per row: clamp, log, noise (drawn in row-major order), 1/tau
  // and the row softmax, with the roundings of the composed ops.
  for (int i = 0; i < rows; ++i) {
    float* row = y + static_cast<size_t>(i) * cols;
    const float* in = a + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      const float floored = in[j] > eps ? in[j] : eps;
      float logit = std::log(floored < ceil ? floored : ceil);
      if (training) logit += static_cast<float>(rng->Gumbel());
      row[j] = logit * inv_tau;
    }
    float mx = row[0];
    for (int j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int j = 0; j < cols; ++j) row[j] *= inv;
  }
  if (!WillTape(adjacency)) return out;
  // Backward from y and A' alone: the softmax gradient, scaled by 1/tau,
  // reaches an entry through the log only where neither clamp bound it.
  return TapeResult(
      std::move(out), {adjacency},
      [rows, cols, eps, ceil, inv_tau](internal::TensorImpl& node) {
        internal::TensorImpl& parent = *node.parents[0];
        parent.EnsureGrad();
        for (int i = 0; i < rows; ++i) {
          const size_t row = static_cast<size_t>(i) * cols;
          const float* g = node.grad.data() + row;
          const float* s = node.data.data() + row;
          const float* x = parent.data.data() + row;
          float* gx = parent.grad.data() + row;
          double dot = 0.0;
          for (int j = 0; j < cols; ++j) dot += g[j] * s[j];
          for (int j = 0; j < cols; ++j) {
            if (!(x[j] > eps && x[j] < ceil)) continue;
            gx[j] += s[j] * (g[j] - static_cast<float>(dot)) * inv_tau / x[j];
          }
        }
      });
}

}  // namespace hap
