// Tests for the sparsity-preserving coarsening stack (docs/SPARSE.md):
// top-k assignment sparsification, the transposed and fused-triple-product
// CSR kernels, the sparse-native GraphLevel, and the CoarsenMode dispatch
// in the coarsening module.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/coarsening.h"
#include "core/hap_model.h"
#include "graph/batched_graph.h"
#include "graph/generators.h"
#include "graph/graph_level.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace hap {
namespace {

// Dense reference for the fused product: Mᵀ (A M).
Tensor DenseCoarsen(const Tensor& a, const Tensor& m) {
  return MatMul(Transpose(m), MatMul(a, m));
}

// The composed top-k chain the CSR assignment replaced, kept as the
// reference: a partial_sort selection mask, then the masked and
// renormalised assignment through taped dense ops. NaN-free input only
// (its comparator is not a strict weak ordering once a row holds NaN).
Tensor ComposedTopK(const Tensor& m, int k) {
  const int rows = m.rows(), cols = m.cols();
  if (k >= cols) return m;
  Tensor mask(rows, cols);
  std::vector<int> order(cols);
  for (int r = 0; r < rows; ++r) {
    const float* row = m.data() + static_cast<size_t>(r) * cols;
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [row](int a, int b) {
                        if (row[a] != row[b]) return row[a] > row[b];
                        return a < b;
                      });
    for (int i = 0; i < k; ++i) mask.Set(r, order[i], 1.0f);
  }
  Tensor masked = Mul(m, mask);
  Tensor row_mass = ClampMin(ReduceSumCols(masked), 1e-9f);
  return ScaleRows(masked, Div(Tensor::Ones(rows, 1), row_mass));
}

// The forward of the fused MᵀAM over a dense M, in the accumulation order
// of the original kernel: A's nonzeros row-major, then each row's nonzero
// assignment columns ascending.
Tensor ComposedCsrCoarsen(const CsrMatrix& a, const Tensor& m) {
  const int n = m.rows(), c = m.cols();
  Tensor out(c, c);
  float* o = out.mutable_data();
  for (int r = 0; r < n; ++r) {
    for (int i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      const int j = a.col_idx()[i];
      const float v = a.values()[i];
      for (int c1 = 0; c1 < c; ++c1) {
        if (m.At(r, c1) == 0.0f) continue;
        const float left = m.At(r, c1) * v;
        for (int c2 = 0; c2 < c; ++c2) {
          if (m.At(j, c2) == 0.0f) continue;
          o[static_cast<size_t>(c1) * c + c2] += left * m.At(j, c2);
        }
      }
    }
  }
  return out;
}

// H' and A' of the top-k branch, new path and composed reference.
struct Products {
  Tensor h;
  Tensor adj;
};

Tensor MassNormalized(const Tensor& mt_h, const Tensor& column_mass) {
  Tensor mass = ClampMin(column_mass, 1e-9f);
  return ScaleRows(mt_h, Div(Tensor::Ones(mass.rows(), 1), mass));
}

Products CsrPath(const CsrMatrix& a, const Tensor& m, const Tensor& h, int k,
                 bool normalize_mass) {
  const SparseAssignment m_k = TopKAssignment(m, k);
  Products out;
  out.h = AssignmentTransposeMatMul(m_k, h);
  if (normalize_mass) {
    out.h = MassNormalized(out.h, AssignmentColumnSums(m_k));
  }
  out.adj = CsrCoarsenAdjacency(a, m_k);
  return out;
}

Products ComposedPath(const CsrMatrix& a, const Tensor& m, const Tensor& h,
                      int k, bool normalize_mass) {
  const Tensor m_k = ComposedTopK(m, k);
  const Tensor m_t = Transpose(m_k);
  Products out;
  out.h = MatMul(m_t, h);
  if (normalize_mass) out.h = MassNormalized(out.h, ReduceSumCols(m_t));
  out.adj = ComposedCsrCoarsen(a, m_k);
  return out;
}

Tensor ToDense(const SparseAssignment& m) {
  Tensor dense(m.rows(), m.cols());
  for (int r = 0; r < m.rows(); ++r) {
    for (int i = m.pattern->row_ptr[r]; i < m.pattern->row_ptr[r + 1]; ++i) {
      dense.Set(r, m.pattern->col_idx[i], m.values.data()[i]);
    }
  }
  return dense;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// An assignment matrix exercising the selection's edge cases: softmax
// rows, exact ties, an all-zero row, and rows with fewer than k nonzeros
// for every k >= 2.
Tensor EdgeCaseAssignment(int n, int c, Rng* rng) {
  Tensor m = SoftmaxRows(Tensor::Randn(n, c, rng, 2.0f));
  std::vector<float> values(m.values());
  auto row = [&](int r) { return values.data() + static_cast<size_t>(r) * c; };
  std::fill(row(0), row(0) + c, 1.0f / c);    // all tied
  std::fill(row(1), row(1) + c, 0.0f);        // all zero
  std::fill(row(2), row(2) + c, 0.0f);        // a single nonzero
  row(2)[c - 1] = 1.0f;
  std::fill(row(3), row(3) + c, 0.0f);        // two tied nonzeros
  row(3)[1] = 0.5f;
  row(3)[c - 2] = 0.5f;
  for (int j = 0; j < c; j += 2) row(4)[j] = row(4)[j + 1 < c ? j + 1 : j];
  return Tensor::FromVector(n, c, std::move(values));
}

TEST(TopKAssignmentTest, KeepsLargestAndRenormalizes) {
  Tensor m = Tensor::FromVector(2, 4,
                                {0.1f, 0.4f, 0.3f, 0.2f,  //
                                 0.25f, 0.25f, 0.25f, 0.25f});
  SparseAssignment a = TopKAssignment(m, 2);
  EXPECT_EQ(a.pattern->row_ptr, (std::vector<int>{0, 2, 4}));
  // Row 0 keeps columns 1 and 2; row 1 is all ties and keeps the LOWEST
  // columns. Columns are stored ascending.
  EXPECT_EQ(a.pattern->col_idx, (std::vector<int>{1, 2, 0, 1}));
  Tensor out = ToDense(a);
  EXPECT_FLOAT_EQ(out.At(0, 0), 0.0f);
  EXPECT_NEAR(out.At(0, 1), 0.4f / 0.7f, 1e-6);
  EXPECT_NEAR(out.At(0, 2), 0.3f / 0.7f, 1e-6);
  EXPECT_FLOAT_EQ(out.At(0, 3), 0.0f);
  EXPECT_NEAR(out.At(1, 0), 0.5f, 1e-6);
  EXPECT_NEAR(out.At(1, 1), 0.5f, 1e-6);
}

TEST(TopKAssignmentTest, BudgetAtLeastColsKeepsMatrixAsIs) {
  Tensor m = Tensor::FromVector(2, 3, {0.2f, 0.5f, 0.3f, 0.0f, 0.1f, 0.9f});
  for (int k : {3, 100}) {
    SparseAssignment a = TopKAssignment(m, k);
    // Every nonzero entry, unscaled: the dense copy is M bit for bit.
    EXPECT_EQ(a.nnz(), 5);
    EXPECT_TRUE(BitEqual(ToDense(a), m));
  }
}

TEST(TopKAssignmentTest, ZeroRowsAndUnderfullRowsStoreOnlyNonzeros) {
  Tensor m = Tensor::FromVector(3, 3,
                                {0.0f, 0.0f, 0.0f,  //
                                 0.6f, 0.3f, 0.1f,  //
                                 0.0f, 0.8f, 0.0f});
  SparseAssignment a = TopKAssignment(m, 2);
  EXPECT_EQ(a.pattern->row_ptr, (std::vector<int>{0, 0, 2, 3}));
  EXPECT_EQ(a.pattern->col_idx, (std::vector<int>{0, 1, 1}));
  EXPECT_NEAR(a.values.data()[0] + a.values.data()[1], 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(a.values.data()[2], 1.0f);
}

TEST(TopKAssignmentTest, NanRanksAboveEveryNumber) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor m = Tensor::FromVector(3, 4,
                                {0.1f, nan, 0.5f, 0.2f,  //
                                 nan, 0.3f, nan, nan,    //
                                 0.4f, 0.1f, 0.3f, 0.2f});
  SparseAssignment a = TopKAssignment(m, 2);
  // Row 0 keeps the NaN and the largest number; row 1 keeps its two
  // lowest NaN columns. Neither depends on how a sort treats NaN.
  EXPECT_EQ(a.pattern->row_ptr, (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(a.pattern->col_idx, (std::vector<int>{1, 2, 0, 2, 0, 2}));
  // A kept NaN poisons its row's mass, so every entry of those rows is
  // NaN; the NaN-free row is unaffected.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(std::isnan(a.values.data()[i]));
  EXPECT_NEAR(a.values.data()[4], 0.4f / 0.7f, 1e-6);
  EXPECT_NEAR(a.values.data()[5], 0.3f / 0.7f, 1e-6);
}

TEST(TopKAssignmentTest, GradientMatchesNumerical) {
  // Logits are well separated so the finite-difference perturbation never
  // flips the selection (straight-through contract: the pattern is
  // constant).
  Tensor logits = Tensor::FromVector(
      3, 4,
      {2.0f, -1.0f, 0.5f, -2.0f,  //
       -1.5f, 1.0f, 2.5f, -0.5f,  //
       0.8f, -2.2f, -1.0f, 2.1f});
  logits.set_requires_grad(true);
  Rng rng(3);
  Tensor h = Tensor::Randn(3, 2, &rng);
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        SparseAssignment a = TopKAssignment(SoftmaxRows(in[0]), 2);
        return Add(ReduceSumAll(Square(a.values)),
                   ReduceSumAll(Square(AssignmentTransposeMatMul(a, h))));
      },
      {logits});
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(SparseCoarsenPathTest, ForwardBitEqualToComposedReference) {
  const int n = 24, c = 6;
  Rng rng(30);
  const CsrMatrix adjacency = SparseErdosRenyiCsr(n, 0.3, &rng);
  const Tensor m = EdgeCaseAssignment(n, c, &rng);
  const Tensor h = Tensor::Randn(n, 5, &rng);
  for (int k : {1, 2, c - 1, c, c + 3}) {
    for (bool normalize : {false, true}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " normalize=" + std::to_string(normalize));
      const Products reference = ComposedPath(adjacency, m, h, k, normalize);
      const Products sparse = CsrPath(adjacency, m, h, k, normalize);
      EXPECT_TRUE(BitEqual(sparse.h, reference.h));
      EXPECT_TRUE(BitEqual(sparse.adj, reference.adj));
      // Same bits when the products land on the tape.
      const Tensor m_taped = m.Detach().set_requires_grad(true);
      const Products taped = CsrPath(adjacency, m_taped, h, k, normalize);
      EXPECT_TRUE(taped.adj.requires_grad());
      EXPECT_TRUE(BitEqual(taped.h, sparse.h));
      EXPECT_TRUE(BitEqual(taped.adj, sparse.adj));
    }
  }
}

TEST(SparseCoarsenPathTest, GradientsMatchComposedReference) {
  const int n = 20, c = 5;
  Rng rng(31);
  const CsrMatrix csr = SparseErdosRenyiCsr(n, 0.3, &rng);
  const Tensor dense_a = csr.ToDense();
  const Tensor m = SoftmaxRows(Tensor::Randn(n, c, &rng, 2.0f));
  const Tensor h = Tensor::Randn(n, 4, &rng);
  // A loss linear in H' and A' hands both paths the same upstream
  // gradients, so only the backward arithmetic is compared.
  const Tensor w_h = Tensor::Randn(c, 4, &rng);
  const Tensor w_adj = Tensor::Randn(c, c, &rng);
  auto loss = [&](const Tensor& h_out, const Tensor& adj) {
    return Add(ReduceSumAll(Mul(h_out, w_h)), ReduceSumAll(Mul(adj, w_adj)));
  };
  // Within 1e-5, relative to the gradient's magnitude once above 1.
  auto near = [](float got, float want) {
    return std::abs(got - want) <= 1e-5f * std::max(1.0f, std::abs(want));
  };
  for (int k : {1, 2, c - 1, c}) {
    for (bool normalize : {false, true}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " normalize=" + std::to_string(normalize));
      Tensor m_sparse = m.Detach().set_requires_grad(true);
      Tensor h_sparse = h.Detach().set_requires_grad(true);
      const Products sparse = CsrPath(csr, m_sparse, h_sparse, k, normalize);
      loss(sparse.h, sparse.adj).Backward();

      Tensor m_ref = m.Detach().set_requires_grad(true);
      Tensor h_ref = h.Detach().set_requires_grad(true);
      const Tensor m_k = ComposedTopK(m_ref, k);
      Tensor h_out = MatMul(Transpose(m_k), h_ref);
      if (normalize) {
        h_out = MassNormalized(h_out, ReduceSumCols(Transpose(m_k)));
      }
      loss(h_out, DenseCoarsen(dense_a, m_k)).Backward();

      for (int64_t i = 0; i < m.size(); ++i) {
        EXPECT_PRED2(near, m_sparse.grad()[i], m_ref.grad()[i]);
      }
      for (int64_t i = 0; i < h.size(); ++i) {
        EXPECT_PRED2(near, h_sparse.grad()[i], h_ref.grad()[i]);
      }
    }
  }
}

TEST(SparseCoarsenPathTest, UntapedSparseProductsBuildNoClosure) {
  Rng rng(32);
  const CsrMatrix csr = SparseErdosRenyiCsr(12, 0.3, &rng);
  const Tensor x = Tensor::Randn(12, 3, &rng, 1.0f, /*requires_grad=*/true);
  const Tensor m = SoftmaxRows(x);
  auto closures = [&]() {
    const SparseAssignment a = TopKAssignment(m, 2);
    const std::vector<Tensor> outs = {
        SpMatMul(csr, x), CsrTransposeMatMul(csr, x), a.values,
        AssignmentTransposeMatMul(a, x), AssignmentColumnSums(a),
        CsrCoarsenAdjacency(csr, a)};
    int count = 0;
    for (const Tensor& t : outs) count += t.impl().backward_fn ? 1 : 0;
    return count;
  };
  EXPECT_EQ(closures(), 6);
  NoGradGuard no_grad;
  EXPECT_EQ(closures(), 0);
}

TEST(CsrTransposeMatMulTest, MatchesDenseTransposeProduct) {
  Rng rng(4);
  Graph g = ConnectedErdosRenyi(8, 0.35, &rng);
  Tensor adjacency = g.AdjacencyMatrix();
  Tensor x = Tensor::Randn(8, 5, &rng);
  Tensor reference = MatMul(Transpose(adjacency), x);
  Tensor sparse = CsrTransposeMatMul(CsrMatrix::FromDense(adjacency), x);
  ASSERT_EQ(sparse.rows(), reference.rows());
  ASSERT_EQ(sparse.cols(), reference.cols());
  for (int64_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(sparse.data()[i], reference.data()[i], 1e-5);
  }
}

TEST(CsrTransposeMatMulTest, GradientMatchesNumerical) {
  Rng rng(5);
  Graph g = ConnectedErdosRenyi(6, 0.4, &rng);
  CsrMatrix csr = CsrMatrix::FromDense(g.AdjacencyMatrix());
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        return ReduceSumAll(Square(CsrTransposeMatMul(csr, in[0])));
      },
      {Tensor::Randn(6, 3, &rng, 1.0f, /*requires_grad=*/true)});
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(AssignmentTransposeMatMulTest, GradientMatchesNumerical) {
  Rng rng(33);
  const Tensor h = Tensor::Randn(6, 3, &rng, 1.0f, /*requires_grad=*/true);
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        SparseAssignment a = TopKAssignment(in[0], 3);
        return Add(ReduceSumAll(Square(AssignmentTransposeMatMul(a, in[1]))),
                   ReduceSumAll(Square(AssignmentColumnSums(a))));
      },
      {Tensor::Randn(6, 3, &rng, 1.0f, /*requires_grad=*/true), h});
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(CsrCoarsenAdjacencyTest, MatchesDenseTripleProduct) {
  Rng rng(6);
  Graph g = ConnectedErdosRenyi(10, 0.3, &rng);
  Tensor adjacency = g.AdjacencyMatrix();
  Tensor m = SoftmaxRows(Tensor::Randn(10, 4, &rng));
  SparseAssignment m_k = TopKAssignment(m, 2);
  Tensor reference = DenseCoarsen(adjacency, ToDense(m_k));
  Tensor fused = CsrCoarsenAdjacency(CsrMatrix::FromDense(adjacency), m_k);
  ASSERT_EQ(fused.rows(), 4);
  ASSERT_EQ(fused.cols(), 4);
  for (int64_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(fused.data()[i], reference.data()[i], 1e-5);
  }
}

TEST(CsrCoarsenAdjacencyTest, GradientMatchesNumerical) {
  Rng rng(7);
  Graph g = ConnectedErdosRenyi(6, 0.45, &rng);
  CsrMatrix csr = CsrMatrix::FromDense(g.AdjacencyMatrix());
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        return ReduceSumAll(
            Square(CsrCoarsenAdjacency(csr, TopKAssignment(in[0], 3))));
      },
      {Tensor::Randn(6, 3, &rng, 1.0f, /*requires_grad=*/true)});
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(CsrCoarsenAdjacencyTest, GradientMatchesDenseReferenceGradient) {
  // Same upstream gradient, fused vs unfused: dM must agree.
  Rng rng(8);
  Graph g = ConnectedErdosRenyi(7, 0.4, &rng);
  Tensor adjacency = g.AdjacencyMatrix();
  CsrMatrix csr = CsrMatrix::FromDense(adjacency);
  Tensor base = Tensor::Randn(7, 3, &rng);

  Tensor m_fused = base.Detach().set_requires_grad(true);
  ReduceSumAll(Square(CsrCoarsenAdjacency(csr, TopKAssignment(m_fused, 3))))
      .Backward();

  Tensor m_ref = base.Detach().set_requires_grad(true);
  ReduceSumAll(Square(DenseCoarsen(adjacency, m_ref))).Backward();

  for (int64_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(m_fused.grad()[i], m_ref.grad()[i], 1e-4);
  }
}

TEST(CsrCoarsenAdjacencyTest, DegenerateShapes) {
  // Single-node graph with no edges: empty CSR row, 1-cluster assignment.
  CsrMatrix empty = CsrMatrix::FromParts(1, 1, {0, 0}, {}, {});
  Tensor m1 = Tensor::FromVector(1, 1, {1.0f});
  Tensor out1 = CsrCoarsenAdjacency(empty, TopKAssignment(m1, 1));
  EXPECT_FLOAT_EQ(out1.At(0, 0), 0.0f);

  // Isolated nodes: rows 1 and 3 have no incident edges.
  Tensor adjacency = Tensor::FromVector(4, 4,
                                        {0, 0, 1, 0,  //
                                         0, 0, 0, 0,  //
                                         1, 0, 0, 0,  //
                                         0, 0, 0, 0});
  Tensor m = SoftmaxRows(Tensor::FromVector(
      4, 2, {1.0f, -1.0f, 0.5f, 0.5f, -1.0f, 1.0f, 0.0f, 0.0f}));
  Tensor fused =
      CsrCoarsenAdjacency(CsrMatrix::FromDense(adjacency), TopKAssignment(m, 2));
  Tensor reference = DenseCoarsen(adjacency, m);
  for (int64_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(fused.data()[i], reference.data()[i], 1e-6);
  }
}

TEST(SparseNativeGraphLevelTest, BasicContract) {
  Rng rng(9);
  CsrMatrix csr = SparseErdosRenyiCsr(50, 0.1, &rng);
  GraphLevel level(csr);
  EXPECT_TRUE(level.defined());
  EXPECT_FALSE(level.has_dense_adjacency());
  EXPECT_EQ(level.num_nodes(), 50);
  EXPECT_TRUE(level.cacheable());
  EXPECT_TRUE(level.UseSparse());
  ASSERT_NE(level.AdjacencyCsrOrNull(), nullptr);
  EXPECT_EQ(level.AdjacencyCsrOrNull()->nnz(), csr.nnz());
}

TEST(SparseNativeGraphLevelTest, PropagationMatchesDenseBackedLevel) {
  Rng rng(10);
  CsrMatrix csr = SparseErdosRenyiCsr(40, 0.12, &rng);
  GraphLevel sparse_level(csr);
  GraphLevel dense_level(csr.ToDense());
  Tensor x = Tensor::Randn(40, 6, &rng);
  Tensor sym_sparse = sparse_level.Propagate(x);
  Tensor sym_dense = MatMul(dense_level.SymNormalized(), x);
  for (int64_t i = 0; i < sym_dense.size(); ++i) {
    EXPECT_NEAR(sym_sparse.data()[i], sym_dense.data()[i], 1e-5);
  }
  Tensor row_sparse = sparse_level.PropagateRowNormalized(x);
  Tensor row_dense = MatMul(dense_level.RowNormalized(), x);
  for (int64_t i = 0; i < row_dense.size(); ++i) {
    EXPECT_NEAR(row_sparse.data()[i], row_dense.data()[i], 1e-5);
  }
  Tensor agg_sparse = sparse_level.Aggregate(x);
  Tensor agg_dense = MatMul(dense_level.adjacency(), x);
  for (int64_t i = 0; i < agg_dense.size(); ++i) {
    EXPECT_NEAR(agg_sparse.data()[i], agg_dense.data()[i], 1e-5);
  }
}

TEST(SparseErdosRenyiCsrTest, SymmetricZeroDiagonalDeterministic) {
  Rng rng_a(11);
  Rng rng_b(11);
  CsrMatrix a = SparseErdosRenyiCsr(200, 0.05, &rng_a);
  CsrMatrix b = SparseErdosRenyiCsr(200, 0.05, &rng_b);
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  // Symmetry + zero diagonal + sorted columns.
  Tensor dense = a.ToDense();
  for (int u = 0; u < 200; ++u) {
    EXPECT_EQ(dense.At(u, u), 0.0f);
    for (int v = 0; v < u; ++v) EXPECT_EQ(dense.At(u, v), dense.At(v, u));
  }
  for (int r = 0; r < 200; ++r) {
    for (int i = a.row_ptr()[r] + 1; i < a.row_ptr()[r + 1]; ++i) {
      EXPECT_LT(a.col_idx()[i - 1], a.col_idx()[i]);
    }
  }
  // Density in the right ballpark (expected 0.05 off-diagonal).
  EXPECT_GT(a.Density(), 0.02);
  EXPECT_LT(a.Density(), 0.09);
}

TEST(CoarsenModeTest, ParseAndName) {
  CoarsenMode mode;
  EXPECT_TRUE(ParseCoarsenMode("dense", &mode));
  EXPECT_EQ(mode, CoarsenMode::kDense);
  EXPECT_TRUE(ParseCoarsenMode("topk", &mode));
  EXPECT_EQ(mode, CoarsenMode::kTopkSparse);
  EXPECT_TRUE(ParseCoarsenMode("auto", &mode));
  EXPECT_EQ(mode, CoarsenMode::kAuto);
  EXPECT_FALSE(ParseCoarsenMode("Dense", &mode));
  EXPECT_FALSE(ParseCoarsenMode("", &mode));
  EXPECT_STREQ(CoarsenModeName(CoarsenMode::kDense), "dense");
  EXPECT_STREQ(CoarsenModeName(CoarsenMode::kTopkSparse), "topk");
  EXPECT_STREQ(CoarsenModeName(CoarsenMode::kAuto), "auto");
}

CoarseningConfig SmallConfig() {
  CoarseningConfig config;
  config.in_features = 6;
  config.num_clusters = 4;
  config.use_gumbel = false;  // deterministic comparisons
  return config;
}

TEST(CoarsenModeTest, DenseModeUnchangedByDefault) {
  Rng rng(12);
  CoarseningModule module(SmallConfig(), &rng);
  module.set_training(false);
  Rng data_rng(13);
  Graph g = ConnectedErdosRenyi(12, 0.3, &data_rng);
  GraphLevel level(g.AdjacencyMatrix());
  Tensor h = Tensor::Randn(12, 6, &data_rng);
  CoarsenResult dense_default = module.Forward(h, level);
  module.set_coarsen_mode(CoarsenMode::kDense);
  CoarsenResult dense_explicit = module.Forward(h, level);
  for (int64_t i = 0; i < dense_default.adjacency.size(); ++i) {
    EXPECT_EQ(dense_default.adjacency.data()[i],
              dense_explicit.adjacency.data()[i]);
  }
}

TEST(CoarsenModeTest, TopkModeBitEqualToComposedReference) {
  Rng data_rng(15);
  Graph g = ConnectedErdosRenyi(12, 0.3, &data_rng);
  const CsrMatrix csr = CsrMatrix::FromDense(g.AdjacencyMatrix());
  GraphLevel level(g.AdjacencyMatrix());
  const Tensor h = Tensor::Randn(12, 6, &data_rng);
  const int clusters = SmallConfig().num_clusters;
  for (int k : {1, 2, clusters - 1}) {
    for (bool normalize : {false, true}) {
      for (bool taped : {false, true}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " normalize=" +
                     std::to_string(normalize) +
                     " taped=" + std::to_string(taped));
        CoarseningConfig config = SmallConfig();
        config.normalize_cluster_mass = normalize;
        Rng rng(14);
        CoarseningModule module(config, &rng);
        module.set_training(false);
        module.set_coarsen_mode(CoarsenMode::kTopkSparse, k);
        CoarsenResult sparse;
        if (taped) {
          sparse = module.Forward(h, level);
          ASSERT_TRUE(sparse.adjacency.requires_grad());
        } else {
          NoGradGuard no_grad;
          sparse = module.Forward(h, level);
        }
        // Reference: the same attention through the composed chain.
        const Products reference =
            ComposedPath(csr, module.last_attention(), h, k, normalize);
        EXPECT_TRUE(BitEqual(sparse.h, reference.h));
        EXPECT_TRUE(BitEqual(sparse.adjacency, reference.adj));
      }
    }
  }
}

TEST(CoarsenModeTest, BatchedTopkBitEqualToPerGraph) {
  // ForwardBatched shares the top-k branch: every graph's H' and A' must
  // match its own Forward() bit for bit, including the Gumbel sharpening.
  CoarseningConfig config = SmallConfig();
  config.use_gumbel = true;
  Rng rng(40);
  CoarseningModule module(config, &rng);
  module.set_training(false);
  module.set_coarsen_mode(CoarsenMode::kTopkSparse, 2);
  Rng data_rng(41);
  std::vector<Tensor> features;
  std::vector<GraphLevel> levels;
  for (int n : {30, 45, 12}) {
    levels.emplace_back(SparseErdosRenyiCsr(n, 0.15, &data_rng));
    features.push_back(Tensor::Randn(n, 6, &data_rng));
  }
  const BatchedGraph batch = BatchGraphs(features, levels);
  NoGradGuard no_grad;
  const BatchedCoarsenResult batched =
      module.ForwardBatched(batch.h, batch.level);
  const int clusters = config.num_clusters;
  for (size_t g = 0; g < levels.size(); ++g) {
    const CoarsenResult single = module.Forward(features[g], levels[g]);
    const int row0 = static_cast<int>(g) * clusters;
    EXPECT_TRUE(BitEqual(SliceRows(batched.h, row0, row0 + clusters),
                         single.h))
        << "graph " << g;
    EXPECT_TRUE(BitEqual(batched.level.levels[g].adjacency(),
                         single.adjacency))
        << "graph " << g;
  }
}

TEST(CoarsenModeTest, TopkFallsBackOnTapedLevel) {
  obs::Counter* fallback =
      obs::GetCounter(obs::names::kCoarsenSparseFallback);
  const uint64_t before = fallback->Value();
  Rng rng(16);
  CoarseningModule module(SmallConfig(), &rng);
  module.set_training(false);
  module.set_coarsen_mode(CoarsenMode::kTopkSparse, 2);
  Rng data_rng(17);
  // A taped adjacency (requires_grad) has no CSR view: the module must
  // fall back to the dense product and count the event.
  Tensor adjacency =
      Tensor::Randn(10, 10, &data_rng, 1.0f, /*requires_grad=*/true);
  Tensor h = Tensor::Randn(10, 6, &data_rng);
  CoarsenResult result = module.Forward(h, GraphLevel(Square(adjacency)));
  EXPECT_EQ(result.adjacency.rows(), 4);
  EXPECT_GT(fallback->Value(), before);
}

TEST(CoarsenModeTest, TopkBudgetAtLeastClustersMatchesDenseToTolerance) {
  // k >= N' keeps M as is, so H' = MᵀH is the dense product bit for bit;
  // A' differs from dense mode only by the fused kernel's summation order
  // and must agree to float tolerance on every entry.
  Rng data_rng(19);
  Graph g = ConnectedErdosRenyi(9, 0.4, &data_rng);
  GraphLevel level(g.AdjacencyMatrix());
  Tensor h = Tensor::Randn(9, 6, &data_rng);
  for (int k : {4, 7}) {
    Rng rng(18);
    CoarseningModule module(SmallConfig(), &rng);
    module.set_training(false);
    CoarsenResult dense = module.Forward(h, level);
    module.set_coarsen_mode(CoarsenMode::kTopkSparse, k);
    CoarsenResult sparse = module.Forward(h, level);
    EXPECT_TRUE(BitEqual(sparse.h, dense.h));
    for (int64_t i = 0; i < dense.adjacency.size(); ++i) {
      EXPECT_NEAR(sparse.adjacency.data()[i], dense.adjacency.data()[i],
                  1e-5);
    }
  }
}

TEST(CoarsenModeTest, AutoDispatchesSparseOnSparseNativeLevel) {
  obs::Counter* topk_mode = obs::GetCounter(obs::names::kCoarsenModeTopk);
  const uint64_t before = topk_mode->Value();
  Rng rng(20);
  CoarseningConfig config = SmallConfig();
  CoarseningModule module(config, &rng);
  module.set_training(false);
  module.set_coarsen_mode(CoarsenMode::kAuto, 2);
  Rng data_rng(21);
  GraphLevel level(SparseErdosRenyiCsr(60, 0.05, &data_rng));
  Tensor h = Tensor::Randn(60, 6, &data_rng);
  CoarsenResult result = module.Forward(h, level);
  EXPECT_EQ(result.h.rows(), 4);
  EXPECT_GT(topk_mode->Value(), before);
}

TEST(SparseCoarsenEndToEndTest, HapForwardBackwardOnSparseNativeLevel) {
  // Full hierarchical model on a CSR-only input level: forward must never
  // request the dense adjacency, and backward must flow to parameters.
  Rng rng(22);
  HapConfig config;
  config.feature_dim = 6;
  config.hidden_dim = 8;
  config.cluster_sizes = {4, 1};
  auto model = MakeHapModel(config, &rng);
  model->set_training(false);
  model->set_coarsen_mode(CoarsenMode::kTopkSparse, 2);
  Rng data_rng(23);
  GraphLevel level(SparseErdosRenyiCsr(80, 0.04, &data_rng));
  Tensor h = Tensor::Randn(80, 6, &data_rng);
  std::vector<Tensor> embeddings = model->EmbedLevels(h, level);
  ASSERT_EQ(embeddings.size(), 2u);
  Tensor loss = ReduceSumAll(Square(embeddings.back()));
  loss.Backward();
  std::vector<Tensor> params;
  model->CollectParameters(&params);
  bool any_nonzero_grad = false;
  for (const Tensor& p : params) {
    for (float g_i : p.grad()) {
      if (g_i != 0.0f) {
        any_nonzero_grad = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_nonzero_grad);
}

}  // namespace
}  // namespace hap
