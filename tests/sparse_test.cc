#include "tensor/sparse.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "core/gumbel.h"
#include "graph/generators.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace hap {
namespace {

TEST(CsrTest, FromDenseRoundTrip) {
  Tensor dense = Tensor::FromVector(2, 3, {1, 0, 2, 0, 0, 3});
  CsrMatrix csr = CsrMatrix::FromDense(dense);
  EXPECT_EQ(csr.nnz(), 3);
  EXPECT_NEAR(csr.Density(), 0.5, 1e-9);
  Tensor back = csr.ToDense();
  for (int64_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(back.data()[i], dense.data()[i]);
  }
}

TEST(CsrTest, ThresholdDropsSmallEntries) {
  Tensor dense = Tensor::FromVector(1, 3, {0.5f, 1e-6f, -0.5f});
  CsrMatrix csr = CsrMatrix::FromDense(dense, 1e-4f);
  EXPECT_EQ(csr.nnz(), 2);
}

// FromDense's loop before it read the row-major buffer directly; the
// stored entries and their order must stay exactly this loop's.
CsrMatrix FromDenseByAt(const Tensor& dense, float threshold) {
  std::vector<int> row_ptr(1, 0), col_idx;
  std::vector<float> values;
  for (int r = 0; r < dense.rows(); ++r) {
    for (int c = 0; c < dense.cols(); ++c) {
      const float v = dense.At(r, c);
      if (std::abs(v) > threshold) {
        col_idx.push_back(c);
        values.push_back(v);
      }
    }
    row_ptr.push_back(static_cast<int>(col_idx.size()));
  }
  return CsrMatrix::FromParts(dense.rows(), dense.cols(), std::move(row_ptr),
                              std::move(col_idx), std::move(values));
}

TEST(CsrTest, FromDenseKeepsInfinitiesAndDropsNanAndSignedZero) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // |NaN| > t and |-0| > 0 are false, so both drop; ±inf are kept.
  Tensor dense = Tensor::FromVector(
      3, 4, {-0.0f, 1.5f, nan, -inf, 0.0f, 0.0f, 0.0f, 0.0f, inf, -0.0f,
             -2.0f, 1e-6f});
  for (float threshold : {0.0f, 1e-4f}) {
    SCOPED_TRACE(::testing::Message() << "threshold " << threshold);
    const CsrMatrix got = CsrMatrix::FromDense(dense, threshold);
    const CsrMatrix want = FromDenseByAt(dense, threshold);
    EXPECT_EQ(got.rows(), want.rows());
    EXPECT_EQ(got.cols(), want.cols());
    EXPECT_EQ(got.row_ptr(), want.row_ptr());
    EXPECT_EQ(got.col_idx(), want.col_idx());
    ASSERT_EQ(got.values().size(), want.values().size());
    EXPECT_EQ(std::memcmp(got.values().data(), want.values().data(),
                          got.values().size() * sizeof(float)),
              0);
  }
  const CsrMatrix csr = CsrMatrix::FromDense(dense);
  EXPECT_EQ(csr.row_ptr(), (std::vector<int>{0, 2, 2, 5}));
  EXPECT_EQ(csr.col_idx(), (std::vector<int>{1, 3, 0, 2, 3}));
  EXPECT_EQ(csr.values(), (std::vector<float>{1.5f, -inf, inf, -2.0f, 1e-6f}));
}

TEST(CsrTest, FromTripletsSumsDuplicates) {
  CsrMatrix csr =
      CsrMatrix::FromTriplets(2, 2, {0, 0, 1}, {1, 1, 0}, {1.0f, 2.0f, 4.0f});
  EXPECT_EQ(csr.nnz(), 2);
  Tensor dense = csr.ToDense();
  EXPECT_EQ(dense.At(0, 1), 3.0f);
  EXPECT_EQ(dense.At(1, 0), 4.0f);
}

TEST(SpMatMulTest, MatchesDenseProduct) {
  Rng rng(1);
  Graph g = ConnectedErdosRenyi(9, 0.3, &rng);
  Tensor adjacency = g.AdjacencyMatrix();
  Tensor x = Tensor::Randn(9, 5, &rng);
  Tensor dense_product = MatMul(adjacency, x);
  Tensor sparse_product = SpMatMul(CsrMatrix::FromDense(adjacency), x);
  for (int64_t i = 0; i < dense_product.size(); ++i) {
    EXPECT_NEAR(sparse_product.data()[i], dense_product.data()[i], 1e-5);
  }
}

TEST(SpMatMulTest, GradientMatchesNumerical) {
  Rng rng(2);
  Graph g = ConnectedErdosRenyi(5, 0.5, &rng);
  CsrMatrix csr = CsrMatrix::FromDense(g.AdjacencyMatrix());
  GradCheckResult result = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        return ReduceSumAll(Square(SpMatMul(csr, in[0])));
      },
      {Tensor::Randn(5, 3, &rng, 1.0f, /*requires_grad=*/true)});
  EXPECT_TRUE(result.ok) << result.max_rel_error;
}

TEST(EdgeDensityTest, CountsAboveThreshold) {
  Tensor dense = Tensor::FromVector(2, 2, {1.0f, 0.0f, 1e-6f, -2.0f});
  EXPECT_NEAR(EdgeDensity(dense, 1e-4f), 0.5, 1e-9);
  EXPECT_NEAR(EdgeDensity(dense, 0.0f), 0.75, 1e-9);
}

TEST(EdgeDensityTest, GumbelSamplingReducesDensityMeasurably) {
  // The Sec. 4.4.4 story, measured: the coarsened adjacency MᵀAM is dense;
  // a tau = 0.1 soft sample concentrates each row, dropping the count of
  // non-negligible entries — that is what makes the sparse fast path
  // (CsrMatrix + SpMatMul) applicable after coarsening.
  Rng rng(3);
  Tensor dense = Tensor::Full(12, 12, 0.3f);
  const double before = EdgeDensity(dense, 0.05f);
  EXPECT_NEAR(before, 1.0, 1e-9);
  Tensor sampled = GumbelSoftSample(dense, 0.1f, &rng, /*training=*/true);
  const double after = EdgeDensity(sampled, 0.05f);
  EXPECT_LT(after, 0.3);
}

}  // namespace
}  // namespace hap
