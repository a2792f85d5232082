// Composed-op reference for Dense (tensor/ops.h): MatMul, then a bias-row
// add, then Relu or Tanh, each its own autograd node, the chain every
// Linear ran before the three became one op. The tests hold Dense's
// forward and gradients memcmp-equal to this chain.
#ifndef HAP_TESTS_DENSE_REFERENCE_H_
#define HAP_TESTS_DENSE_REFERENCE_H_

#include "common/check.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace hap::reference {

/// Adds a 1×N row vector to every row of A as one autograd node: each
/// output is a[i, j] + row[j], and row[j]'s gradient sums the output's
/// column j over rows ascending.
inline Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  HAP_CHECK_EQ(row.rows(), 1);
  HAP_CHECK_EQ(row.cols(), a.cols());
  const int m = a.rows(), n = a.cols();
  Tensor out =
      MakeOpResult(m, n, {a, row}, [m, n](internal::TensorImpl& node) {
        internal::TensorImpl& pa = *node.parents[0];
        internal::TensorImpl& pr = *node.parents[1];
        if (pa.requires_grad) {
          pa.EnsureGrad();
          for (size_t e = 0; e < node.grad.size(); ++e) {
            pa.grad[e] += node.grad[e];
          }
        }
        if (pr.requires_grad) {
          pr.EnsureGrad();
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              pr.grad[j] += node.grad[static_cast<size_t>(i) * n + j];
            }
          }
        }
      });
  float* o = out.mutable_data();
  const float* pa = a.data();
  const float* pr = row.data();
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      o[static_cast<size_t>(i) * n + j] =
          pa[static_cast<size_t>(i) * n + j] + pr[j];
    }
  }
  return out;
}

/// Dense from composed ops; an undefined bias skips the add.
inline Tensor Dense(const Tensor& x, const Tensor& w, const Tensor& bias,
                    Activation activation) {
  Tensor out = MatMul(x, w);
  if (bias.defined()) out = AddRowBroadcast(out, bias);
  switch (activation) {
    case Activation::kNone:
      return out;
    case Activation::kRelu:
      return Relu(out);
    case Activation::kTanh:
      return Tanh(out);
  }
  HAP_CHECK(false) << "unreachable";
  return out;
}

}  // namespace hap::reference

#endif  // HAP_TESTS_DENSE_REFERENCE_H_
