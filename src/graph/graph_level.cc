#include "graph/graph_level.h"

#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "graph/propagation.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "tensor/ops.h"

namespace hap {

namespace {

std::atomic<SparseDispatch> g_sparse_dispatch{SparseDispatch::kAuto};

// Cache reads: served from a filled cache, filling it, or recomputed on a
// non-cacheable (taped) level.
obs::Counter* CacheHitCounter() {
  static obs::Counter* c = obs::GetCounter(obs::names::kGraphCacheHit);
  return c;
}
obs::Counter* CacheMissCounter() {
  static obs::Counter* c = obs::GetCounter(obs::names::kGraphCacheMiss);
  return c;
}
obs::Counter* UncachedCounter() {
  static obs::Counter* c = obs::GetCounter(obs::names::kGraphUncached);
  return c;
}
obs::Counter* DispatchDenseCounter() {
  static obs::Counter* c = obs::GetCounter(obs::names::kDispatchDense);
  return c;
}
obs::Counter* DispatchSparseCounter() {
  static obs::Counter* c = obs::GetCounter(obs::names::kDispatchSparse);
  return c;
}

// CSR analogues of propagation.h's dense normalisers, the one path by
// which every level builds its normalized CSR operators, so no dense
// Ã = A + I detour is needed. The numerics mirror the dense code, and the
// result equals CsrMatrix::FromDense of the dense operator byte for byte:
// degrees are the row sums of Ã accumulated in double in ascending column
// order (dense ReduceSumCols also adds the exact zeros, a no-op), rounded
// to float and floored at eps as ClampMin floors them; each value is
// scaled row-factor-first; and entries that normalise to zero are
// dropped, as FromDense drops them.

CsrMatrix CsrAddIdentity(const CsrMatrix& a) {
  const int n = a.rows();
  std::vector<int> row_ptr(n + 1, 0);
  std::vector<int> col_idx;
  std::vector<float> values;
  col_idx.reserve(a.nnz() + n);
  values.reserve(a.nnz() + n);
  for (int r = 0; r < n; ++r) {
    bool placed = false;
    for (int i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      const int c = a.col_idx()[i];
      if (!placed && c >= r) {
        if (c == r) {
          col_idx.push_back(r);
          values.push_back(a.values()[i] + 1.0f);
          placed = true;
          continue;
        }
        col_idx.push_back(r);
        values.push_back(1.0f);
        placed = true;
      }
      col_idx.push_back(c);
      values.push_back(a.values()[i]);
    }
    if (!placed) {
      col_idx.push_back(r);
      values.push_back(1.0f);
    }
    row_ptr[r + 1] = static_cast<int>(col_idx.size());
  }
  return CsrMatrix::FromParts(n, n, std::move(row_ptr), std::move(col_idx),
                              std::move(values));
}

enum class CsrNorm { kSym, kRow };

CsrMatrix CsrNormalize(const CsrMatrix& a, CsrNorm norm, float eps = 1e-9f) {
  const CsrMatrix a_tilde = CsrAddIdentity(a);
  const int n = a_tilde.rows();
  const std::vector<int>& tilde_ptr = a_tilde.row_ptr();
  const std::vector<int>& tilde_col = a_tilde.col_idx();
  const std::vector<float>& tilde_val = a_tilde.values();
  std::vector<float> factor(n);  // 1/deg (row) or 1/sqrt(deg) (sym)
  for (int r = 0; r < n; ++r) {
    double sum = 0.0;
    for (int i = tilde_ptr[r]; i < tilde_ptr[r + 1]; ++i) sum += tilde_val[i];
    const float row_sum = static_cast<float>(sum);
    const float degree = row_sum > eps ? row_sum : eps;
    factor[r] = norm == CsrNorm::kSym ? 1.0f / std::sqrt(degree)
                                      : 1.0f / degree;
  }
  std::vector<int> row_ptr(n + 1, 0);
  std::vector<int> col_idx;
  std::vector<float> values;
  col_idx.reserve(tilde_col.size());
  values.reserve(tilde_val.size());
  for (int r = 0; r < n; ++r) {
    for (int i = tilde_ptr[r]; i < tilde_ptr[r + 1]; ++i) {
      const int c = tilde_col[i];
      const float v = norm == CsrNorm::kSym
                          ? (tilde_val[i] * factor[r]) * factor[c]
                          : tilde_val[i] * factor[r];
      if (std::abs(v) > kSparsityThreshold) {
        col_idx.push_back(c);
        values.push_back(v);
      }
    }
    row_ptr[r + 1] = static_cast<int>(col_idx.size());
  }
  return CsrMatrix::FromParts(n, n, std::move(row_ptr), std::move(col_idx),
                              std::move(values));
}

// One cached operator: built once under `once`, immutable afterwards, so
// reads after the build need no lock.
template <typename T>
struct Slot {
  std::once_flag once;
  std::optional<T> value;
};

// The one fill path: returns `slot`'s value, building it with `build` on
// the first read. Every read ticks exactly one cache hit or miss.
template <typename T, typename Build>
const T& Fill(Slot<T>& slot, Build build) {
  bool built = false;
  std::call_once(slot.once, [&] {
    slot.value.emplace(build());
    built = true;
  });
  (built ? CacheMissCounter() : CacheHitCounter())->Increment();
  return *slot.value;
}

// A dense operator `compute(adjacency)`: cached in `slot` when the level is
// cacheable, else recomputed (taped) on every read.
template <typename Compute>
Tensor DenseOperator(bool cacheable, const Tensor& adjacency,
                     Slot<Tensor>& slot, Compute compute) {
  if (!cacheable) {
    UncachedCounter()->Increment();
    return compute(adjacency);
  }
  return Fill(slot, [&] { return compute(adjacency); });
}

}  // namespace

void SetSparseDispatch(SparseDispatch mode) {
  g_sparse_dispatch.store(mode, std::memory_order_relaxed);
}

SparseDispatch GetSparseDispatch() {
  return g_sparse_dispatch.load(std::memory_order_relaxed);
}

struct GraphLevel::State {
  Tensor adjacency;  // undefined for sparse-native levels
  int num_nodes = 0;
  bool cacheable = false;

  std::once_flag density_once;
  double density = 0.0;
  // Cached tensors are untaped constants (cacheable implies the adjacency
  // is a grad-free leaf), so handing out aliasing copies is safe across
  // threads: backward passes never touch them (see the needs-grad guards
  // in ops.cc). A sparse-native level's adjacency lives in adjacency_csr,
  // filled at construction.
  Slot<CsrMatrix> adjacency_csr;
  Slot<CsrMatrix> sym_csr;
  Slot<CsrMatrix> row_csr;
  Slot<Tensor> sym;
  Slot<Tensor> row;
  Slot<Tensor> log_mask;
};

GraphLevel::GraphLevel(Tensor adjacency) : state_(std::make_shared<State>()) {
  HAP_CHECK(adjacency.defined()) << "GraphLevel needs a defined adjacency";
  HAP_CHECK_EQ(adjacency.rows(), adjacency.cols());
  state_->adjacency = std::move(adjacency);
  state_->num_nodes = state_->adjacency.rows();
  const internal::TensorImpl& impl = state_->adjacency.impl();
  state_->cacheable = !impl.requires_grad && impl.parents.empty();
}

GraphLevel::GraphLevel(CsrMatrix adjacency)
    : state_(std::make_shared<State>()) {
  HAP_CHECK_EQ(adjacency.rows(), adjacency.cols());
  state_->num_nodes = adjacency.rows();
  state_->cacheable = true;  // CSR values are input data, never taped
  // The native CSR fills the adjacency-CSR slot: every read of it is a hit.
  Slot<CsrMatrix>& slot = state_->adjacency_csr;
  std::call_once(slot.once, [&] { slot.value.emplace(std::move(adjacency)); });
}

bool GraphLevel::has_dense_adjacency() const {
  return defined() && state_->adjacency.defined();
}

const Tensor& GraphLevel::adjacency() const {
  HAP_CHECK(defined()) << "use of undefined GraphLevel";
  HAP_CHECK(state_->adjacency.defined())
      << "dense adjacency requested from a sparse-native GraphLevel; "
         "check has_dense_adjacency() (docs/SPARSE.md)";
  return state_->adjacency;
}

int GraphLevel::num_nodes() const {
  HAP_CHECK(defined()) << "use of undefined GraphLevel";
  return state_->num_nodes;
}

bool GraphLevel::cacheable() const { return defined() && state_->cacheable; }

double GraphLevel::Density() const {
  State& s = *state_;
  std::call_once(s.density_once, [&s] {
    s.density = s.adjacency.defined() ? EdgeDensity(s.adjacency)
                                      : s.adjacency_csr.value->Density();
  });
  return s.density;
}

bool GraphLevel::UseSparse() const {
  if (!cacheable()) return false;
  // A sparse-native level has no dense operators to dispatch to: the
  // force-dense override cannot be honoured and is ignored.
  if (!has_dense_adjacency()) return true;
  switch (GetSparseDispatch()) {
    case SparseDispatch::kForceDense:
      return false;
    case SparseDispatch::kForceSparse:
      return true;
    case SparseDispatch::kAuto:
      return Density() < kSparseDispatchDensity;
  }
  return false;
}

// Each dense operator reads adjacency() first, which CHECKs that the
// level is defined and dense-backed.
Tensor GraphLevel::SymNormalized() const {
  const Tensor& a = adjacency();
  return DenseOperator(state_->cacheable, a, state_->sym,
                       [](const Tensor& t) { return SymNormalize(t); });
}

Tensor GraphLevel::RowNormalized() const {
  const Tensor& a = adjacency();
  return DenseOperator(state_->cacheable, a, state_->row,
                       [](const Tensor& t) { return RowNormalize(t); });
}

Tensor GraphLevel::LogMask() const {
  const Tensor& a = adjacency();
  return DenseOperator(state_->cacheable, a, state_->log_mask,
                       NeighborhoodLogMask);
}

const CsrMatrix* GraphLevel::AdjacencyCsrOrNull() const {
  if (!cacheable()) return nullptr;
  State& s = *state_;
  return &Fill(s.adjacency_csr,
               [&s] { return CsrMatrix::FromDense(s.adjacency); });
}

const CsrMatrix& GraphLevel::SymCsr() const {
  return Fill(state_->sym_csr, [this] {
    return CsrNormalize(*AdjacencyCsrOrNull(), CsrNorm::kSym);
  });
}

const CsrMatrix& GraphLevel::RowCsr() const {
  return Fill(state_->row_csr, [this] {
    return CsrNormalize(*AdjacencyCsrOrNull(), CsrNorm::kRow);
  });
}

Tensor GraphLevel::Propagate(const Tensor& x) const {
  if (UseSparse()) {
    DispatchSparseCounter()->Increment();
    return SpMatMul(SymCsr(), x);
  }
  DispatchDenseCounter()->Increment();
  return MatMul(SymNormalized(), x);
}

Tensor GraphLevel::PropagateRowNormalized(const Tensor& x) const {
  if (UseSparse()) {
    DispatchSparseCounter()->Increment();
    return SpMatMul(RowCsr(), x);
  }
  DispatchDenseCounter()->Increment();
  return MatMul(RowNormalized(), x);
}

Tensor GraphLevel::Aggregate(const Tensor& x) const {
  if (UseSparse()) {
    DispatchSparseCounter()->Increment();
    return SpMatMul(*AdjacencyCsrOrNull(), x);
  }
  DispatchDenseCounter()->Increment();
  return MatMul(adjacency(), x);
}

void GraphLevel::WarmCaches() const {
  if (!cacheable()) return;
  Density();
  if (UseSparse()) {
    SymCsr();  // builds from, and so also fills, the adjacency CSR
  } else {
    SymNormalized();
  }
}

}  // namespace hap
