#include "graph/propagation.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace hap {

Tensor AddIdentity(const Tensor& a) {
  HAP_CHECK_EQ(a.rows(), a.cols());
  return Add(a, Tensor::Identity(a.rows()));
}

Tensor SymNormalize(const Tensor& a, float eps) {
  HAP_CHECK_EQ(a.rows(), a.cols());
  const int n = a.rows();
  const float* x = a.data();
  Tensor out(n, n);
  float* y = out.mutable_data();
  // Degrees of Ã = A + I: each row summed in double, rounded to float and
  // floored at eps. `y` holds Ã until the scale pass; A's off-diagonal
  // entries gain + 0.0f as the composed Add gave them (-0 becomes +0).
  std::vector<float> degree(n), factor(n);
  ParallelFor(0, n, RowGrain(n), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const size_t row = static_cast<size_t>(r) * n;
      double sum = 0.0;
      for (int c = 0; c < n; ++c) {
        const float v = x[row + c] + (c == r ? 1.0f : 0.0f);
        y[row + c] = v;
        sum += v;
      }
      const float d = static_cast<float>(sum);
      degree[r] = d > eps ? d : eps;
      HAP_CHECK_GE(degree[r], 0.0f);
      factor[r] = 1.0f / std::sqrt(degree[r]);
    }
  });
  ParallelFor(0, n, RowGrain(n), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      float* row = y + static_cast<size_t>(r) * n;
      for (int c = 0; c < n; ++c) row[c] = (row[c] * factor[r]) * factor[c];
    }
  });
  if (!WillTape(a)) return out;
  // With f = d^{-1/2} and u_k = Σ_j g_kj y_kj + Σ_i g_ik y_ik:
  //   dA_kl = g_kl f_k f_l - f_k² u_k / 2,
  // the second term only where the degree was not floored.
  return TapeResult(
      std::move(out), {a},
      [n, eps, degree = std::move(degree),
       factor = std::move(factor)](internal::TensorImpl& node) {
        internal::TensorImpl& parent = *node.parents[0];
        parent.EnsureGrad();
        const float* g = node.grad.data();
        const float* y = node.data.data();
        std::vector<double> dots(n, 0.0);
        for (int r = 0; r < n; ++r) {
          const size_t row = static_cast<size_t>(r) * n;
          double row_dot = 0.0;
          for (int c = 0; c < n; ++c) {
            const double gy = static_cast<double>(g[row + c]) * y[row + c];
            row_dot += gy;
            dots[c] += gy;
          }
          dots[r] += row_dot;
        }
        ParallelFor(0, n, RowGrain(n), [&](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            const size_t row = static_cast<size_t>(r) * n;
            const float shift =
                degree[r] > eps
                    ? -0.5f * factor[r] * factor[r] *
                          static_cast<float>(dots[r])
                    : 0.0f;
            float* gx = parent.grad.data() + row;
            for (int c = 0; c < n; ++c) {
              gx[c] += g[row + c] * factor[r] * factor[c] + shift;
            }
          }
        });
      });
}

Tensor RowNormalize(const Tensor& a, float eps) {
  Tensor a_tilde = AddIdentity(a);
  Tensor degree = ClampMin(ReduceSumCols(a_tilde), eps);
  Tensor inv = Div(Tensor::Ones(degree.rows(), 1), degree);
  return ScaleRows(a_tilde, inv);
}

Tensor NeighborhoodLogMask(const Tensor& a) {
  Tensor a_tilde = AddIdentity(a);
  // The hard mask is a constant (non-differentiable) tensor; build it with
  // a single linear sweep over the raw buffers. Zero-initialised entries
  // stay 0 on edges, exact non-edges get the -1e9 barrier.
  Tensor hard_mask(a_tilde.rows(), a_tilde.cols());
  const float* src = a_tilde.data();
  float* dst = hard_mask.mutable_data();
  const int64_t size = a_tilde.size();
  for (int64_t i = 0; i < size; ++i) {
    if (src[i] == 0.0f) dst[i] = -1e9f;
  }
  return Add(Log(ClampMin(a_tilde, 1e-9f)), hard_mask);
}

}  // namespace hap
