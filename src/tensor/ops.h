#ifndef HAP_TENSOR_OPS_H_
#define HAP_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace hap {

// All ops are pure: they allocate a fresh result and (when autograd is
// enabled and an input requires grad) record a backward function that
// accumulates into the inputs' gradients. Shapes are validated with
// HAP_CHECK. See DESIGN.md "Numerical conventions".

/// Matrix product A(m,k) * B(k,n) -> (m,n).
///
/// Eval-only reduced precision: under a non-fp32 PrecisionScope
/// (tensor/quant.h) the forward dispatches the int8 kernel family
/// instead (shape permitting) and HAP_CHECK-fails if the result
/// would be taped — training always runs the bit-deterministic fp32
/// kernels. While a CalibrationObserver is installed, activation·weight
/// sites record the activation's absmax for later quantization.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Fused leaky_relu(A·B + bias, alpha) with bias a 1xN row. The taped
/// path composes MatMul/AddRowBroadcast/LeakyRelu (bit-identical,
/// gradients flow); the untaped eval path runs one fused pass, and under
/// an int8 PrecisionScope the bias+LeakyReLU epilogue fuses into the
/// quantized GEMM — the MOA attention-scoring hot path (Eq. 14).
Tensor MatMulBiasLeakyRelu(const Tensor& a, const Tensor& b,
                           const Tensor& bias, float alpha = 0.2f);

/// Elementwise sum of equally shaped tensors.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise difference a - b.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise (Hadamard) product.
Tensor Mul(const Tensor& a, const Tensor& b);

/// Elementwise quotient a / b. The caller guarantees b is nonzero.
Tensor Div(const Tensor& a, const Tensor& b);

/// Adds a 1xN row vector to every row of A (bias broadcast).
Tensor AddRowBroadcast(const Tensor& a, const Tensor& row);

/// Multiplies row i of A(m,n) by scale[i] from an (m,1) column vector
/// (used for Top-K gating in gPool/SAGPool).
Tensor ScaleRows(const Tensor& a, const Tensor& scale);

/// Multiplies column j of A(m,n) by scale[j] from a (1,n) row vector.
Tensor ScaleCols(const Tensor& a, const Tensor& scale);

/// Outer broadcast sum: out(m,n)[i,j] = col[i] + row[j] for col (m,1) and
/// row (1,n). Used to form GAT attention logits.
Tensor OuterSum(const Tensor& col, const Tensor& row);

/// A * c for a compile-time constant scalar (no grad to c).
Tensor MulScalar(const Tensor& a, float c);

/// A + c elementwise.
Tensor AddScalar(const Tensor& a, float c);

/// -A.
Tensor Neg(const Tensor& a);

/// Transpose (m,n) -> (n,m).
Tensor Transpose(const Tensor& a);

/// Horizontal concatenation [A | B] of (m,na) and (m,nb) -> (m,na+nb).
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Vertical concatenation of equally wide tensors, in order.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Rows [r0, r1) of A.
Tensor SliceRows(const Tensor& a, int r0, int r1);

/// Columns [c0, c1) of A.
Tensor SliceCols(const Tensor& a, int c0, int c1);

/// Selects rows by index (duplicates allowed); backward scatter-adds.
Tensor GatherRows(const Tensor& a, const std::vector<int>& indices);

/// Reinterprets A's data in row-major order as (rows, cols); size must match.
Tensor Reshape(const Tensor& a, int rows, int cols);

/// max(A, 0).
Tensor Relu(const Tensor& a);

/// x >= 0 ? x : alpha * x (paper's MOA uses LeakyReLU, Eq. 14).
Tensor LeakyRelu(const Tensor& a, float alpha = 0.2f);

/// Logistic sigmoid.
Tensor Sigmoid(const Tensor& a);

/// Hyperbolic tangent.
Tensor Tanh(const Tensor& a);

/// Elementwise exp.
Tensor Exp(const Tensor& a);

/// Elementwise natural log. Inputs must be positive; callers add an epsilon
/// where zeros are possible (e.g. Gumbel soft sampling of A').
Tensor Log(const Tensor& a);

/// Elementwise square root of nonnegative inputs.
Tensor Sqrt(const Tensor& a);

/// Elementwise square.
Tensor Square(const Tensor& a);

/// max(A, floor) with pass-through gradient where A > floor. NaN entries
/// compare false and are mapped to `floor`.
Tensor ClampMin(const Tensor& a, float floor);

/// min(A, ceil) with pass-through gradient where A < ceil. NaN entries
/// compare false and are mapped to `ceil`.
Tensor ClampMax(const Tensor& a, float ceil);

/// Row-wise softmax (over columns), numerically stabilised.
Tensor SoftmaxRows(const Tensor& a);

/// Row-wise log-softmax (over columns), numerically stabilised.
Tensor LogSoftmaxRows(const Tensor& a);

/// Sum of all entries -> 1x1.
Tensor ReduceSumAll(const Tensor& a);

/// Mean of all entries -> 1x1.
Tensor ReduceMeanAll(const Tensor& a);

/// Column sums: out(1,n)[j] = sum_i A[i,j].
Tensor ReduceSumRows(const Tensor& a);

/// Row sums: out(m,1)[i] = sum_j A[i,j].
Tensor ReduceSumCols(const Tensor& a);

/// Column means -> (1,n).
Tensor ReduceMeanRows(const Tensor& a);

/// Row means -> (m,1).
Tensor ReduceMeanCols(const Tensor& a);

/// Column-wise max -> (1,n); gradient flows to the arg-max element only.
Tensor ReduceMaxRows(const Tensor& a);

/// Mean negative log-likelihood of `labels` under row-wise log-probs.
/// `logprobs` is (b, c) from LogSoftmaxRows; labels.size() == b.
Tensor NllLoss(const Tensor& logprobs, const std::vector<int>& labels);

/// Squared Euclidean distance between two 1xF row vectors -> 1x1.
Tensor SquaredDistance(const Tensor& a, const Tensor& b);

/// Euclidean distance between two 1xF row vectors -> 1x1 (eps-guarded).
Tensor EuclideanDistance(const Tensor& a, const Tensor& b);

/// Indices that would sort `column_values` descending (no autograd; helper
/// for Top-K style poolers).
std::vector<int> ArgSortDescending(const std::vector<float>& column_values);

/// Indices of the k largest entries of column c of A, descending.
std::vector<int> TopKRowsByColumn(const Tensor& a, int c, int k);

}  // namespace hap

#endif  // HAP_TENSOR_OPS_H_
