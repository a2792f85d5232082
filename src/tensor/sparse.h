#ifndef HAP_TENSOR_SPARSE_H_
#define HAP_TENSOR_SPARSE_H_

#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace hap {

/// The single sparsity threshold used across the library: an entry is a
/// structural nonzero iff |value| > kSparsityThreshold. Both
/// CsrMatrix::FromDense and EdgeDensity default to it, and GraphLevel uses
/// it for its dense/sparse dispatch decision, so the three always agree on
/// which entries exist.
///
/// The value is exactly 0.0f — not a small epsilon — deliberately: the
/// dense MatMul forward skips multiplicands that equal 0.0f, so a CSR
/// matrix built at this threshold enumerates exactly the entries the dense
/// kernel would touch, in the same ascending order. That makes
/// SpMatMul(FromDense(A), X) bit-identical to MatMul(A, X), which the
/// sparse-dispatch parity tests rely on. An epsilon threshold would drop
/// tiny-but-nonzero entries and change results. Callers measuring
/// *numerically significant* density (e.g. the soft-sampling ablation)
/// should pass their own explicit threshold.
inline constexpr float kSparsityThreshold = 0.0f;

/// Compressed sparse row matrix of fixed weights (no autograd through the
/// sparse values themselves — in this library sparse matrices hold input
/// adjacencies, whose entries are data, not parameters).
///
/// Sec. 4.4.4 motivates HAP's soft sampling with exactly this distinction:
/// message passing over a sparse adjacency costs O(|E|) instead of
/// O(|V|²). CsrMatrix + SpMatMul realise that fast path for the
/// uncoarsened input levels.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from a dense matrix, keeping entries with |value| > threshold
  /// (see kSparsityThreshold for why the default is exact zero).
  static CsrMatrix FromDense(const Tensor& dense,
                             float threshold = kSparsityThreshold);

  /// Builds directly from triplets (row, col, value); duplicates are
  /// summed.
  static CsrMatrix FromTriplets(int rows, int cols,
                                const std::vector<int>& row_indices,
                                const std::vector<int>& col_indices,
                                const std::vector<float>& values);

  /// Adopts prebuilt CSR arrays (validated: monotone row_ptr, in-range,
  /// per-row ascending column indices). The O(m) path for generators that
  /// assemble large graphs directly in CSR form without a dense detour.
  static CsrMatrix FromParts(int rows, int cols, std::vector<int> row_ptr,
                             std::vector<int> col_idx,
                             std::vector<float> values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// Fraction of stored entries, nnz / (rows*cols).
  double Density() const;

  Tensor ToDense() const;

  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<int> row_ptr_;   // size rows_+1
  std::vector<int> col_idx_;   // size nnz
  std::vector<float> values_;  // size nnz
};

/// Sparse-dense product A(m,k) * X(k,n) -> (m,n) in O(nnz * n).
/// Differentiable with respect to X only: dX += Aᵀ dOut. Like every op
/// here that holds a CsrMatrix operand, it copies A's arrays into a
/// backward closure only when the result lands on the tape; untaped
/// calls build no closure.
Tensor SpMatMul(const CsrMatrix& a, const Tensor& x);

/// Transposed sparse-dense product Aᵀ(k,m) * X(m,n) -> (k,n) in
/// O(nnz * n), without materialising the transposed CSR. Differentiable
/// with respect to X only: dX += A dOut.
Tensor CsrTransposeMatMul(const CsrMatrix& a, const Tensor& x);

/// A row-sparse assignment matrix M(n, c) in CSR form (docs/SPARSE.md):
/// per row, at most k column indices in ascending order, and no stored
/// zeros. The pattern is a constant of the tape, shared (not copied) by
/// the backward closures of the ops below; `values` holds the nnz stored
/// entries in pattern order as an (nnz, 1) tensor that carries gradients
/// back to the dense matrix the assignment was selected from.
struct SparseAssignment {
  struct Pattern {
    int rows = 0;
    int cols = 0;
    std::vector<int> row_ptr;  // size rows + 1
    std::vector<int> col_idx;  // size nnz
  };
  std::shared_ptr<const Pattern> pattern;
  Tensor values;

  int rows() const { return pattern->rows; }
  int cols() const { return pattern->cols; }
  int64_t nnz() const { return static_cast<int64_t>(pattern->col_idx.size()); }
};

/// Top-k-per-row assignment sparsification in one select-and-renormalise
/// pass per row (docs/SPARSE.md). Keeps the k largest entries of each row
/// of `m` — ties go to the lower column, and NaN ranks above every number,
/// so the order is a strict weak ordering even on rows holding NaN — and
/// rescales them to unit row mass, the row-stochastic invariant MOA's
/// softmax established:
///   value = m[i,j] * (1 / max(mass_i, 1e-9)),
/// with mass_i summed in double over the kept entries in ascending column
/// order. Kept entries whose value is exactly 0 are not stored, so an
/// all-zero row stays empty. k >= cols keeps M as is: every nonzero entry,
/// unscaled. Selection is by value, not magnitude (nonnegative assignments
/// in mind).
///
/// Gradients are straight-through with respect to the selection: the
/// pattern is a constant of the tape, and the stored entries carry the
/// exact gradient of the masked and renormalised forward. Entries that are
/// not stored receive none; for a softmax-produced M that loses nothing,
/// since the softmax Jacobian is zero wherever its output is.
SparseAssignment TopKAssignment(const Tensor& m, int k);

/// Mᵀ X -> (c, n) for an assignment M(n, c) and X(n, n') in O(nnz(M)·n'),
/// bit-identical to MatMul(Transpose(dense M), X): the dense kernels
/// skip zero multiplicands and sum in ascending row order, as this
/// scatter does. Differentiable with respect to M's values and X.
Tensor AssignmentTransposeMatMul(const SparseAssignment& m, const Tensor& x);

/// Column sums of an assignment M(n, c) -> (c, 1), accumulated in double
/// in ascending row order: bit-identical to
/// ReduceSumCols(Transpose(dense M)). Differentiable with respect to
/// M's values.
Tensor AssignmentColumnSums(const SparseAssignment& m);

/// Fused coarsened adjacency A' = Mᵀ A M -> (c, c) for a CSR A(n,n) and a
/// sparse assignment M(n,c), in O(nnz(A) * k²) where k is the max
/// nonzeros per row of M. Neither the dense (n,c) intermediate A·M nor any
/// dense n×n operand is ever materialised — the kernel streams A's
/// nonzeros against M's per-row entries. Differentiable with respect to
/// M's values only (A holds input adjacency data):
/// dM = A (M dOutᵀ) + Aᵀ (M dOut), evaluated at M's stored entries.
Tensor CsrCoarsenAdjacency(const CsrMatrix& a, const SparseAssignment& m);

/// Fraction of entries of `dense` with |value| > threshold. The default is
/// the shared kSparsityThreshold so the reported density matches the entry
/// set CsrMatrix::FromDense would store; analyses that care about
/// numerically negligible weights (e.g. the soft-sampling ablation) pass
/// an explicit epsilon instead.
double EdgeDensity(const Tensor& dense, float threshold = kSparsityThreshold);

}  // namespace hap

#endif  // HAP_TENSOR_SPARSE_H_
