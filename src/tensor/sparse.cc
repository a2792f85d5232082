#include "tensor/sparse.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "common/check.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace hap {

CsrMatrix CsrMatrix::FromDense(const Tensor& dense, float threshold) {
  CsrMatrix out;
  out.rows_ = dense.rows();
  out.cols_ = dense.cols();
  out.row_ptr_.assign(out.rows_ + 1, 0);
  for (int r = 0; r < out.rows_; ++r) {
    for (int c = 0; c < out.cols_; ++c) {
      const float v = dense.At(r, c);
      if (std::abs(v) > threshold) {
        out.col_idx_.push_back(c);
        out.values_.push_back(v);
      }
    }
    out.row_ptr_[r + 1] = static_cast<int>(out.col_idx_.size());
  }
  return out;
}

CsrMatrix CsrMatrix::FromTriplets(int rows, int cols,
                                  const std::vector<int>& row_indices,
                                  const std::vector<int>& col_indices,
                                  const std::vector<float>& values) {
  HAP_CHECK_EQ(row_indices.size(), col_indices.size());
  HAP_CHECK_EQ(row_indices.size(), values.size());
  // Accumulate duplicates in row-major order.
  std::map<std::pair<int, int>, float> cells;
  for (size_t i = 0; i < values.size(); ++i) {
    HAP_CHECK(row_indices[i] >= 0 && row_indices[i] < rows);
    HAP_CHECK(col_indices[i] >= 0 && col_indices[i] < cols);
    cells[{row_indices[i], col_indices[i]}] += values[i];
  }
  CsrMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_.assign(rows + 1, 0);
  for (const auto& [cell, value] : cells) {
    out.col_idx_.push_back(cell.second);
    out.values_.push_back(value);
    ++out.row_ptr_[cell.first + 1];
  }
  for (int r = 0; r < rows; ++r) out.row_ptr_[r + 1] += out.row_ptr_[r];
  return out;
}

CsrMatrix CsrMatrix::FromParts(int rows, int cols, std::vector<int> row_ptr,
                               std::vector<int> col_idx,
                               std::vector<float> values) {
  HAP_CHECK_GE(rows, 0);
  HAP_CHECK_GE(cols, 0);
  HAP_CHECK_EQ(row_ptr.size(), static_cast<size_t>(rows) + 1);
  HAP_CHECK_EQ(col_idx.size(), values.size());
  HAP_CHECK_EQ(row_ptr.front(), 0);
  HAP_CHECK_EQ(row_ptr.back(), static_cast<int>(col_idx.size()));
  for (int r = 0; r < rows; ++r) {
    HAP_CHECK_LE(row_ptr[r], row_ptr[r + 1]);
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      HAP_CHECK(col_idx[i] >= 0 && col_idx[i] < cols);
      if (i > row_ptr[r]) {
        HAP_CHECK_LT(col_idx[i - 1], col_idx[i])
            << "FromParts requires strictly ascending columns per row";
      }
    }
  }
  CsrMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_ = std::move(row_ptr);
  out.col_idx_ = std::move(col_idx);
  out.values_ = std::move(values);
  return out;
}

double CsrMatrix::Density() const {
  const int64_t total = static_cast<int64_t>(rows_) * cols_;
  return total == 0 ? 0.0 : static_cast<double>(nnz()) / total;
}

Tensor CsrMatrix::ToDense() const {
  Tensor dense(rows_, cols_);
  float* data = dense.mutable_data();
  for (int r = 0; r < rows_; ++r) {
    for (int i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      data[static_cast<size_t>(r) * cols_ + col_idx_[i]] = values_[i];
    }
  }
  return dense;
}

namespace {

using BackwardFn = std::function<void(internal::TensorImpl&)>;

// Counts one CSR-by-dense product of `nnz` stored entries against `n`
// dense columns under the tensor.spmatmul.* family.
void CountSpMatMul(int64_t nnz, int n) {
  if (obs::HotCountersEnabled()) {
    static obs::Counter* calls = obs::GetCounter(obs::names::kSpMatMulCalls);
    static obs::Counter* flops = obs::GetCounter(obs::names::kSpMatMulFlops);
    calls->Increment();
    flops->Add(2ull * static_cast<uint64_t>(nnz) * n);
  }
}

// out(m, n) += A X for the CSR arrays of A(m, k) and a dense X(k, n).
void CsrProduct(const int* row_ptr, const int* col_idx, const float* values,
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

// out(k, n) += Aᵀ X for the CSR arrays of A(m, k) and a dense X(m, n):
// scatters v · X[r,:] into out[col,:] row by row, so every output element
// sums its terms in ascending r — the order of the dense GEMM kernels.
void CsrTransposeProduct(const int* row_ptr, const int* col_idx,
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

// The selection order of TopKAssignment: true when `a` ranks strictly
// above `b`. NaN ranks above every number and ties with NaN, so this is a
// strict weak ordering on every float; ties go to the lower column.
bool Outranks(float a, float b) {
  return a > b || (std::isnan(a) && !std::isnan(b));
}

}  // namespace

Tensor SpMatMul(const CsrMatrix& a, const Tensor& x) {
  HAP_CHECK_EQ(a.cols(), x.rows());
  const int m = a.rows(), n = x.cols();
  // Per-kernel counters guard on the hot switch (one relaxed load when
  // off); the timing histogram only records under detailed metrics.
  static obs::Histogram* op_ns = obs::GetHistogram(obs::names::kSpMatMulNs);
  CountSpMatMul(a.nnz(), n);
  obs::ScopedTimerNs timer(op_ns);
  BackwardFn backward;
  if (WillTape(x)) {
    // The matrix is immutable data: one copy of its arrays rides in the
    // closure.
    backward = [row_ptr = a.row_ptr(), col_idx = a.col_idx(),
                values = a.values(), m, n](internal::TensorImpl& node) {
      internal::TensorImpl& px = *node.parents[0];
      px.EnsureGrad();
      // dX += Aᵀ dOut
      CsrTransposeProduct(row_ptr.data(), col_idx.data(), values.data(), m,
                          node.grad.data(), n, px.grad.data());
    };
  }
  Tensor out = MakeOpResult(m, n, {x}, std::move(backward));
  CsrProduct(a.row_ptr().data(), a.col_idx().data(), a.values().data(), m,
             x.data(), n, out.mutable_data());
  return out;
}

Tensor CsrTransposeMatMul(const CsrMatrix& a, const Tensor& x) {
  HAP_CHECK_EQ(a.rows(), x.rows());
  const int m = a.rows(), k = a.cols(), n = x.cols();
  static obs::Histogram* op_ns = obs::GetHistogram(obs::names::kSpMatMulNs);
  CountSpMatMul(a.nnz(), n);
  obs::ScopedTimerNs timer(op_ns);
  BackwardFn backward;
  if (WillTape(x)) {
    backward = [row_ptr = a.row_ptr(), col_idx = a.col_idx(),
                values = a.values(), m, n](internal::TensorImpl& node) {
      internal::TensorImpl& px = *node.parents[0];
      px.EnsureGrad();
      // dX += A dOut
      CsrProduct(row_ptr.data(), col_idx.data(), values.data(), m,
                 node.grad.data(), n, px.grad.data());
    };
  }
  Tensor out = MakeOpResult(k, n, {x}, std::move(backward));
  CsrTransposeProduct(a.row_ptr().data(), a.col_idx().data(),
                      a.values().data(), m, x.data(), n, out.mutable_data());
  return out;
}

SparseAssignment TopKAssignment(const Tensor& m, int k) {
  HAP_CHECK_GE(k, 1);
  constexpr float kMinMass = 1e-9f;  // keeps an all-zero row finite
  const int rows = m.rows(), cols = m.cols();
  const bool select = k < cols;  // k >= cols keeps M as is
  const int budget = std::min(k, cols);
  auto pattern = std::make_shared<SparseAssignment::Pattern>();
  pattern->rows = rows;
  pattern->cols = cols;
  pattern->row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  pattern->col_idx.reserve(static_cast<size_t>(rows) * budget);
  std::vector<float> kept;
  kept.reserve(static_cast<size_t>(rows) * budget);
  // Per row: the renormalising factor (1 when M is kept as is), and
  // whether the row mass carries a gradient (only through an inactive
  // clamp of a renormalised row).
  std::vector<float> inv_mass(rows, 1.0f);
  std::vector<uint8_t> mass_live(rows, 0);
  std::vector<float> best(budget);
  std::vector<int> top(budget);
  for (int r = 0; r < rows; ++r) {
    const float* row = m.data() + static_cast<size_t>(r) * cols;
    if (!select) {
      for (int j = 0; j < cols; ++j) {
        if (row[j] != 0.0f) {
          pattern->col_idx.push_back(j);
          kept.push_back(row[j]);
        }
      }
      pattern->row_ptr[r + 1] = static_cast<int>(kept.size());
      continue;
    }
    // Insertion into a rank-ordered buffer of the best `budget` entries
    // seen so far. Columns arrive ascending, so an equal-ranked newcomer
    // never displaces an earlier column.
    int size = 0;
    for (int j = 0; j < cols; ++j) {
      const float v = row[j];
      if (size == budget && !Outranks(v, best[budget - 1])) continue;
      int p = size < budget ? size++ : budget - 1;
      for (; p > 0 && Outranks(v, best[p - 1]); --p) {
        best[p] = best[p - 1];
        top[p] = top[p - 1];
      }
      best[p] = v;
      top[p] = j;
    }
    std::sort(top.begin(), top.end());
    double mass = 0.0;
    for (int j : top) mass += row[j];
    const float total = static_cast<float>(mass);
    mass_live[r] = total > kMinMass;
    inv_mass[r] = 1.0f / std::max(total, kMinMass);  // NaN mass stays NaN
    for (int j : top) {
      const float v = row[j] * inv_mass[r];
      if (v != 0.0f) {
        pattern->col_idx.push_back(j);
        kept.push_back(v);
      }
    }
    pattern->row_ptr[r + 1] = static_cast<int>(kept.size());
  }
  const int nnz = static_cast<int>(kept.size());
  BackwardFn backward;
  if (WillTape(m)) {
    backward = [pattern, inv_mass = std::move(inv_mass),
                mass_live = std::move(mass_live),
                cols](internal::TensorImpl& node) {
      internal::TensorImpl& pm = *node.parents[0];
      pm.EnsureGrad();
      const float* g = node.grad.data();
      for (int r = 0; r < pattern->rows; ++r) {
        const int begin = pattern->row_ptr[r], end = pattern->row_ptr[r + 1];
        const size_t base = static_cast<size_t>(r) * cols;
        // value = m · inv with inv = 1 / mass and mass = Σ kept m, so
        // d m_j = g_j · inv − (Σ_i g_i · m_i) · inv² while the clamp is
        // inactive.
        const float inv = inv_mass[r];
        float mass_grad = 0.0f;
        if (mass_live[r]) {
          double dot = 0.0;
          for (int i = begin; i < end; ++i) {
            dot += static_cast<double>(g[i]) *
                   pm.data[base + pattern->col_idx[i]];
          }
          mass_grad = -static_cast<float>(dot) * inv * inv;
        }
        for (int i = begin; i < end; ++i) {
          pm.grad[base + pattern->col_idx[i]] += g[i] * inv + mass_grad;
        }
      }
    };
  }
  SparseAssignment out;
  out.values = MakeOpResult(nnz, 1, {m}, std::move(backward));
  std::copy(kept.begin(), kept.end(), out.values.mutable_data());
  out.pattern = std::move(pattern);
  return out;
}

Tensor AssignmentTransposeMatMul(const SparseAssignment& m, const Tensor& x) {
  HAP_CHECK_EQ(m.rows(), x.rows());
  const int n = x.cols();
  static obs::Histogram* op_ns = obs::GetHistogram(obs::names::kSpMatMulNs);
  CountSpMatMul(m.nnz(), n);
  obs::ScopedTimerNs timer(op_ns);
  BackwardFn backward;
  if (WillTape(m.values, x)) {
    backward = [pattern = m.pattern, n](internal::TensorImpl& node) {
      internal::TensorImpl& pv = *node.parents[0];
      internal::TensorImpl& px = *node.parents[1];
      const int* row_ptr = pattern->row_ptr.data();
      const int* col_idx = pattern->col_idx.data();
      if (pv.requires_grad) {
        // d value(r, c) = dOut[c,:] · X[r,:]
        pv.EnsureGrad();
        for (int r = 0; r < pattern->rows; ++r) {
          const float* x_row = px.data.data() + static_cast<size_t>(r) * n;
          for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
            const float* grad_row =
                node.grad.data() + static_cast<size_t>(col_idx[i]) * n;
            double dot = 0.0;
            for (int j = 0; j < n; ++j) {
              dot += static_cast<double>(grad_row[j]) * x_row[j];
            }
            pv.grad[i] += static_cast<float>(dot);
          }
        }
      }
      if (px.requires_grad) {
        px.EnsureGrad();
        CsrProduct(row_ptr, col_idx, pv.data.data(), pattern->rows,
                   node.grad.data(), n, px.grad.data());
      }
    };
  }
  Tensor out = MakeOpResult(m.cols(), n, {m.values, x}, std::move(backward));
  CsrTransposeProduct(m.pattern->row_ptr.data(), m.pattern->col_idx.data(),
                      m.values.data(), m.rows(), x.data(), n,
                      out.mutable_data());
  return out;
}

Tensor AssignmentColumnSums(const SparseAssignment& m) {
  BackwardFn backward;
  if (WillTape(m.values)) {
    backward = [pattern = m.pattern](internal::TensorImpl& node) {
      internal::TensorImpl& pv = *node.parents[0];
      pv.EnsureGrad();
      for (size_t i = 0; i < pattern->col_idx.size(); ++i) {
        pv.grad[i] += node.grad[pattern->col_idx[i]];
      }
    };
  }
  Tensor out = MakeOpResult(m.cols(), 1, {m.values}, std::move(backward));
  // Storage order is row-major, so each column's entries arrive in
  // ascending row order.
  std::vector<double> sums(m.cols(), 0.0);
  const std::vector<int>& col_idx = m.pattern->col_idx;
  for (size_t i = 0; i < col_idx.size(); ++i) {
    sums[col_idx[i]] += m.values.data()[i];
  }
  float* o = out.mutable_data();
  for (int c = 0; c < m.cols(); ++c) o[c] = static_cast<float>(sums[c]);
  return out;
}

Tensor CsrCoarsenAdjacency(const CsrMatrix& a, const SparseAssignment& m) {
  HAP_CHECK_EQ(a.rows(), a.cols());
  HAP_CHECK_EQ(a.rows(), m.rows());
  const int n = a.rows(), c = m.cols();
  static obs::Histogram* op_ns = obs::GetHistogram(obs::names::kCsrCoarsenNs);
  if (obs::HotCountersEnabled()) {
    static obs::Counter* calls = obs::GetCounter(obs::names::kCsrCoarsenCalls);
    static obs::Counter* flops = obs::GetCounter(obs::names::kCsrCoarsenFlops);
    calls->Increment();
    const double avg_k = n == 0 ? 0.0 : static_cast<double>(m.nnz()) / n;
    flops->Add(static_cast<uint64_t>(3.0 * a.nnz() * avg_k * avg_k));
  }
  obs::ScopedTimerNs timer(op_ns);
  BackwardFn backward;
  if (WillTape(m.values)) {
    backward = [row_ptr = a.row_ptr(), col_idx = a.col_idx(),
                values = a.values(), pattern = m.pattern, n,
                c](internal::TensorImpl& node) {
      internal::TensorImpl& pv = *node.parents[0];
      pv.EnsureGrad();
      const float* mv = pv.data.data();
      const int* m_ptr = pattern->row_ptr.data();
      const int* m_col = pattern->col_idx.data();
      const float* g = node.grad.data();  // (c, c)
      // dM = A (M Gᵀ) + Aᵀ (M G). Both (n, c) products P1 = M·Gᵀ and
      // P2 = M·G come from M's stored entries.
      std::vector<float> p1(static_cast<size_t>(n) * c, 0.0f);
      std::vector<float> p2(static_cast<size_t>(n) * c, 0.0f);
      for (int i = 0; i < n; ++i) {
        float* p1_row = p1.data() + static_cast<size_t>(i) * c;
        float* p2_row = p2.data() + static_cast<size_t>(i) * c;
        for (int e = m_ptr[i]; e < m_ptr[i + 1]; ++e) {
          const int c2 = m_col[e];
          const float mval = mv[e];
          const float* g_col = g + c2;  // G[:, c2] strided
          const float* g_row = g + static_cast<size_t>(c2) * c;  // G[c2, :]
          for (int c1 = 0; c1 < c; ++c1) {
            p1_row[c1] += mval * g_col[static_cast<size_t>(c1) * c];
            p2_row[c1] += mval * g_row[c1];
          }
        }
      }
      // One pass over A's nonzeros, evaluated only at M's stored entries:
      // entry (r, j, v) adds v·P1[j, col] to row r's entries (the A·P1
      // term) and v·P2[r, col] to row j's entries (the Aᵀ·P2 term).
      for (int r = 0; r < n; ++r) {
        const float* p2_r = p2.data() + static_cast<size_t>(r) * c;
        for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
          const int j = col_idx[i];
          const float v = values[i];
          const float* p1_j = p1.data() + static_cast<size_t>(j) * c;
          for (int e = m_ptr[r]; e < m_ptr[r + 1]; ++e) {
            pv.grad[e] += v * p1_j[m_col[e]];
          }
          for (int e = m_ptr[j]; e < m_ptr[j + 1]; ++e) {
            pv.grad[e] += v * p2_r[m_col[e]];
          }
        }
      }
    };
  }
  Tensor out = MakeOpResult(c, c, {m.values}, std::move(backward));
  float* o = out.mutable_data();
  const int* row_ptr = a.row_ptr().data();
  const int* col_idx = a.col_idx().data();
  const float* values = a.values().data();
  const int* m_ptr = m.pattern->row_ptr.data();
  const int* m_col = m.pattern->col_idx.data();
  const float* mv = m.values.data();
  for (int r = 0; r < n; ++r) {
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const int j = col_idx[i];
      const float v = values[i];
      for (int e1 = m_ptr[r]; e1 < m_ptr[r + 1]; ++e1) {
        const float left = mv[e1] * v;
        float* out_row = o + static_cast<size_t>(m_col[e1]) * c;
        for (int e2 = m_ptr[j]; e2 < m_ptr[j + 1]; ++e2) {
          out_row[m_col[e2]] += left * mv[e2];
        }
      }
    }
  }
  return out;
}

double EdgeDensity(const Tensor& dense, float threshold) {
  if (dense.size() == 0) return 0.0;
  int64_t count = 0;
  for (int64_t i = 0; i < dense.size(); ++i) {
    if (std::abs(dense.data()[i]) > threshold) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(dense.size());
}

}  // namespace hap
