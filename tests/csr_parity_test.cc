// Pins the CSR×dense kernels (SpMatMul, CsrTransposeMatMul,
// AssignmentTransposeMatMul: forward and every gradient) to the scalar
// loops they replaced, copied below as the reference. Per output element
// both add the same terms in the same order, so every non-NaN bit must
// match, and NaNs must land in the same elements. Operands are vectors of
// exactly their size, so a load or store past the end of a row's last
// partial vector that is not masked reads out of bounds (ASan reports it).
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace hap {
namespace {

// The scalar loops, verbatim.
void RefCsrProduct(const int* row_ptr, const int* col_idx, const float* values,
                   int m, const float* x, int n, float* out) {
  for (int r = 0; r < m; ++r) {
    float* out_row = out + static_cast<size_t>(r) * n;
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const float* x_row = x + static_cast<size_t>(col_idx[i]) * n;
      const float v = values[i];
      for (int j = 0; j < n; ++j) out_row[j] += v * x_row[j];
    }
  }
}

void RefCsrTransposeProduct(const int* row_ptr, const int* col_idx,
                            const float* values, int m, const float* x, int n,
                            float* out) {
  for (int r = 0; r < m; ++r) {
    const float* x_row = x + static_cast<size_t>(r) * n;
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      float* out_row = out + static_cast<size_t>(col_idx[i]) * n;
      const float v = values[i];
      for (int j = 0; j < n; ++j) out_row[j] += v * x_row[j];
    }
  }
}

// d value(r, c) = dOut[c,:] · X[r,:], as AssignmentTransposeMatMul's
// backward computes it.
std::vector<float> RefAssignmentValueGrad(const SparseAssignment::Pattern& p,
                                          const float* x, const float* grad,
                                          int n) {
  std::vector<float> out(p.col_idx.size(), 0.0f);
  for (int r = 0; r < p.rows; ++r) {
    const float* x_row = x + static_cast<size_t>(r) * n;
    for (int i = p.row_ptr[r]; i < p.row_ptr[r + 1]; ++i) {
      const float* grad_row = grad + static_cast<size_t>(p.col_idx[i]) * n;
      double dot = 0.0;
      for (int j = 0; j < n; ++j) {
        dot += static_cast<double>(grad_row[j]) * x_row[j];
      }
      out[i] += static_cast<float>(dot);
    }
  }
  return out;
}

// Every non-NaN bit equal, NaN in the same elements (NaN payloads are
// outside the kernels' contract, tensor/matmul_kernels.h).
void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    uint32_t gb, wb;
    std::memcpy(&gb, &got[i], sizeof(gb));
    std::memcpy(&wb, &want[i], sizeof(wb));
    EXPECT_EQ(gb, wb) << what << " differs at flat index " << i << " ("
                      << got[i] << " vs " << want[i] << ")";
  }
}

std::vector<float> Normals(Rng* rng, int64_t count) {
  std::vector<float> v(static_cast<size_t>(count));
  for (float& x : v) x = static_cast<float>(rng->Normal());
  return v;
}

// A rows×cols CSR matrix with about `density` of each row stored, and
// every third row empty.
CsrMatrix RandomCsr(int rows, int cols, double density, Rng* rng) {
  std::vector<int> row_ptr(1, 0), col_idx;
  std::vector<float> values;
  for (int r = 0; r < rows; ++r) {
    if (r % 3 != 1) {
      for (int c = 0; c < cols; ++c) {
        if (rng->Uniform(0.0, 1.0) < density) {
          col_idx.push_back(c);
          values.push_back(static_cast<float>(rng->Normal()));
        }
      }
    }
    row_ptr.push_back(static_cast<int>(col_idx.size()));
  }
  return CsrMatrix::FromParts(rows, cols, std::move(row_ptr),
                              std::move(col_idx), std::move(values));
}

// An assignment over the same pattern as `a`, with leaf values.
SparseAssignment AssignmentOf(const CsrMatrix& a) {
  auto pattern = std::make_shared<SparseAssignment::Pattern>();
  pattern->rows = a.rows();
  pattern->cols = a.cols();
  pattern->row_ptr = a.row_ptr();
  pattern->col_idx = a.col_idx();
  SparseAssignment m;
  m.pattern = std::move(pattern);
  m.values = Tensor::FromVector(static_cast<int>(a.nnz()), 1, a.values(),
                                /*requires_grad=*/true);
  return m;
}

// Outputs and gradients of the three ops, flattened in one order.
struct OpRuns {
  std::vector<std::vector<float>> kernel, reference;
  std::vector<const char*> names;

  void Add(const char* name, std::vector<float> got, std::vector<float> want) {
    names.push_back(name);
    kernel.push_back(std::move(got));
    reference.push_back(std::move(want));
  }
};

// Runs each op forward and backward on A(m,k) and X, with upstream
// gradient W (the loss is sum(out ⊙ W)), and the scalar loops on the same
// operands.
OpRuns RunOps(const CsrMatrix& a, const std::vector<float>& x_k,
              const std::vector<float>& x_m, const std::vector<float>& w_m,
              const std::vector<float>& w_k, int n) {
  const int m = a.rows(), k = a.cols();
  const int* rp = a.row_ptr().data();
  const int* ci = a.col_idx().data();
  const float* av = a.values().data();
  OpRuns runs;
  {  // SpMatMul: out(m,n) = A X(k,n); dX = Aᵀ dOut.
    Tensor x = Tensor::FromVector(k, n, x_k, /*requires_grad=*/true);
    Tensor out = SpMatMul(a, x);
    ReduceSumAll(Mul(out, Tensor::FromVector(m, n, w_m))).Backward();
    std::vector<float> want(static_cast<size_t>(m) * n, 0.0f);
    RefCsrProduct(rp, ci, av, m, x_k.data(), n, want.data());
    runs.Add("SpMatMul forward", out.values(), want);
    std::vector<float> dx(static_cast<size_t>(k) * n, 0.0f);
    RefCsrTransposeProduct(rp, ci, av, m, out.grad().data(), n, dx.data());
    runs.Add("SpMatMul dX", x.grad(), dx);
  }
  {  // CsrTransposeMatMul: out(k,n) = Aᵀ X(m,n); dX = A dOut.
    Tensor x = Tensor::FromVector(m, n, x_m, /*requires_grad=*/true);
    Tensor out = CsrTransposeMatMul(a, x);
    ReduceSumAll(Mul(out, Tensor::FromVector(k, n, w_k))).Backward();
    std::vector<float> want(static_cast<size_t>(k) * n, 0.0f);
    RefCsrTransposeProduct(rp, ci, av, m, x_m.data(), n, want.data());
    runs.Add("CsrTransposeMatMul forward", out.values(), want);
    std::vector<float> dx(static_cast<size_t>(m) * n, 0.0f);
    RefCsrProduct(rp, ci, av, m, out.grad().data(), n, dx.data());
    runs.Add("CsrTransposeMatMul dX", x.grad(), dx);
  }
  {  // AssignmentTransposeMatMul: out(k,n) = Mᵀ X(m,n); dX = M dOut and
     // d values.
    const SparseAssignment assignment = AssignmentOf(a);
    Tensor x = Tensor::FromVector(m, n, x_m, /*requires_grad=*/true);
    Tensor out = AssignmentTransposeMatMul(assignment, x);
    ReduceSumAll(Mul(out, Tensor::FromVector(k, n, w_k))).Backward();
    std::vector<float> want(static_cast<size_t>(k) * n, 0.0f);
    RefCsrTransposeProduct(rp, ci, av, m, x_m.data(), n, want.data());
    runs.Add("AssignmentTransposeMatMul forward", out.values(), want);
    std::vector<float> dx(static_cast<size_t>(m) * n, 0.0f);
    RefCsrProduct(rp, ci, av, m, out.grad().data(), n, dx.data());
    runs.Add("AssignmentTransposeMatMul dX", x.grad(), dx);
    if (a.nnz() > 0) {
      runs.Add("AssignmentTransposeMatMul dValues", assignment.values.grad(),
               RefAssignmentValueGrad(*assignment.pattern, x_m.data(),
                                      out.grad().data(), n));
    }
  }
  return runs;
}

void ExpectRunsMatch(const OpRuns& runs) {
  for (size_t i = 0; i < runs.names.size(); ++i) {
    ExpectSameBits(runs.kernel[i], runs.reference[i], runs.names[i]);
  }
}

constexpr int kWidths[] = {1, 3, 8, 15, 16, 17, 31, 32, 33, 40};

TEST(CsrParityTest, ProductsMatchScalarLoops) {
  Rng rng(0xC5A11u);
  const int m = 23, k = 19;
  for (int n : kWidths) {
    for (double density : {0.1, 0.4}) {
      const CsrMatrix a = RandomCsr(m, k, density, &rng);
      SCOPED_TRACE(::testing::Message()
                   << "n " << n << " density " << density << " nnz "
                   << a.nnz());
      ExpectRunsMatch(RunOps(a, Normals(&rng, int64_t{k} * n),
                             Normals(&rng, int64_t{m} * n),
                             Normals(&rng, int64_t{m} * n),
                             Normals(&rng, int64_t{k} * n), n));
    }
  }
}

TEST(CsrParityTest, AllEmptyMatrixAddsNothing) {
  Rng rng(0xE11u);
  const int m = 9, k = 5;
  const CsrMatrix a = CsrMatrix::FromParts(m, k, std::vector<int>(m + 1, 0),
                                           {}, {});
  for (int n : kWidths) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    const OpRuns runs = RunOps(a, Normals(&rng, int64_t{k} * n),
                               Normals(&rng, int64_t{m} * n),
                               Normals(&rng, int64_t{m} * n),
                               Normals(&rng, int64_t{k} * n), n);
    ExpectRunsMatch(runs);
    for (const auto& values : runs.kernel) {
      for (float v : values) EXPECT_EQ(v, 0.0f);
    }
  }
}

TEST(CsrParityTest, NonFiniteInputsMatch) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(0x1EEEu);
  const int m = 17, k = 13;
  for (int n : kWidths) {
    const CsrMatrix a = RandomCsr(m, k, 0.35, &rng);
    std::vector<float> x_k = Normals(&rng, int64_t{k} * n);
    std::vector<float> x_m = Normals(&rng, int64_t{m} * n);
    // One NaN, +inf and -inf per operand, the last ones in the rows'
    // last (possibly partial) vector.
    for (std::vector<float>* x : {&x_k, &x_m}) {
      const size_t size = x->size();
      (*x)[0] = nan;
      (*x)[size / 2] = inf;
      (*x)[size - 1] = -inf;
      (*x)[size - 1 - (size > 4 ? 3 : 0)] = nan;
    }
    SCOPED_TRACE(::testing::Message() << "n " << n);
    ExpectRunsMatch(RunOps(a, x_k, x_m, Normals(&rng, int64_t{m} * n),
                           Normals(&rng, int64_t{k} * n), n));
  }
}

TEST(CsrParityTest, BitsIndependentOfThreadCount) {
  const int m = 41, k = 37;
  std::vector<OpRuns> per_width[2];
  const int threads[2] = {1, 4};
  const int before = NumThreads();
  for (int t = 0; t < 2; ++t) {
    SetNumThreads(threads[t]);
    Rng rng(0x7EAD5u);
    for (int n : kWidths) {
      const CsrMatrix a = RandomCsr(m, k, 0.25, &rng);
      per_width[t].push_back(RunOps(a, Normals(&rng, int64_t{k} * n),
                                    Normals(&rng, int64_t{m} * n),
                                    Normals(&rng, int64_t{m} * n),
                                    Normals(&rng, int64_t{k} * n), n));
    }
  }
  SetNumThreads(before);
  for (size_t w = 0; w < per_width[0].size(); ++w) {
    const OpRuns& one = per_width[0][w];
    const OpRuns& four = per_width[1][w];
    ExpectRunsMatch(one);
    ASSERT_EQ(one.kernel.size(), four.kernel.size());
    for (size_t i = 0; i < one.kernel.size(); ++i) {
      ASSERT_EQ(one.kernel[i].size(), four.kernel[i].size());
      EXPECT_EQ(std::memcmp(one.kernel[i].data(), four.kernel[i].data(),
                            one.kernel[i].size() * sizeof(float)),
                0)
          << one.names[i] << " at n " << kWidths[w];
    }
  }
}

}  // namespace
}  // namespace hap
