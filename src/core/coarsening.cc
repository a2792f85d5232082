#include "core/coarsening.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/gumbel.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/matmul_kernels.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/sparse.h"

namespace hap {

CoarseningModule::CoarseningModule(const CoarseningConfig& config, Rng* rng)
    : config_(config), noise_rng_(rng->Fork()) {
  HAP_CHECK_GT(config_.in_features, 0);
  HAP_CHECK_GT(config_.num_clusters, 0);
  if (config_.use_gcont) {
    gcont_transform_ =
        Tensor::Xavier(config_.in_features, config_.num_clusters, rng);
    attn_row_ = Tensor::Xavier(config_.num_clusters, 1, rng);
    attn_col_ = Tensor::Xavier(config_.num_clusters, 1, rng);
  } else {
    cluster_seeds_ =
        Tensor::Xavier(config_.num_clusters, config_.in_features, rng);
    attn_row_ = Tensor::Xavier(config_.in_features, 1, rng);
    attn_col_ = Tensor::Xavier(config_.in_features, 1, rng);
  }
}

namespace {

// The grad buffer of a parent that requires grad, else nullptr: parents
// without requires_grad never get one.
float* GradOf(internal::TensorImpl& parent) {
  if (!parent.requires_grad) return nullptr;
  parent.EnsureGrad();
  return parent.grad.data();
}

// GCont standardisation's forward (Eq. 13 prepared as in the config
// comment), shared by both grad modes; `y` may alias `x`. Two
// double-accumulated reductions and one scale pass, bit-identical to the
// composed ops it replaces (tests/coarsening_reference.h): the same sums
// in the same order, a float rounding wherever they round, the same
// HAP_CHECK on a NaN variance, and the mean broadcast as MatMul delivers
// it, which skips a zero multiplicand and so turns a -0 mean into +0.
// Returns the standard deviation.
float Standardize(const float* x, float* y, int64_t size) {
  HAP_CHECK_GT(size, 0);
  const float inv_size = 1.0f / static_cast<float>(size);
  double sum = 0.0;
  for (int64_t i = 0; i < size; ++i) sum += x[i];
  float mean = static_cast<float>(sum) * inv_size;
  if (mean == 0.0f) mean = 0.0f;
  double squares = 0.0;
  for (int64_t i = 0; i < size; ++i) {
    const float d = x[i] - mean;
    const float d2 = d * d;
    squares += d2;
  }
  const float variance = static_cast<float>(squares) * inv_size + 1e-6f;
  HAP_CHECK_GE(variance, 0.0f);
  const float stddev = std::sqrt(variance);
  for (int64_t i = 0; i < size; ++i) y[i] = (x[i] - mean) / stddev;
  return stddev;
}

// Backward of y = (x - mean)/σ over all entries, from y and σ alone:
//   dx = (g - mean(g) - y·mean(g∘y)) / σ.
void StandardizeBackward(float stddev, internal::TensorImpl& node) {
  float* gx = GradOf(*node.parents[0]);
  if (gx == nullptr) return;
  const float* g = node.grad.data();
  const float* y = node.data.data();
  const int64_t size = static_cast<int64_t>(node.data.size());
  double g_sum = 0.0, gy_sum = 0.0;
  for (int64_t i = 0; i < size; ++i) {
    g_sum += g[i];
    gy_sum += static_cast<double>(g[i]) * y[i];
  }
  const float g_mean = static_cast<float>(g_sum / size);
  const float gy_mean = static_cast<float>(gy_sum / size);
  const float inv_stddev = 1.0f / stddev;
  ParallelFor(0, size, kParallelGrainWork, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      gx[i] += (g[i] - g_mean - y[i] * gy_mean) * inv_stddev;
    }
  });
}

// The one ascending-row pass of MOA over C (N×N′): the row scores
// r = C·a₁, the column-score sums s (Cᵀ(C·a₂), or for the paper-literal
// relaxation the truncated Cᵀa₂; the caller scales), when `gram` is
// non-null G = CᵀC, and when `projected` is non-null p = C·a₂. Every sum
// adds the terms of the MatMul it replaces in that product's order: rows
// ascending, terms whose left-hand C entry is zero skipped
// (tensor/matmul_kernels.h).
void ScanGContRows(const float* c, int n, int k, const float* a1,
                   const float* a2, bool literal, float* r, float* s,
                   float* gram, float* projected) {
  const int literal_rows = std::min(n, k);
  for (int i = 0; i < n; ++i) {
    const float* row = c + static_cast<size_t>(i) * k;
    float row_score = 0.0f, row_projected = 0.0f;
    for (int p = 0; p < k; ++p) {
      const float v = row[p];
      if (v == 0.0f) continue;
      row_score += v * a1[p];
      row_projected += v * a2[p];
    }
    r[i] = row_score;
    if (projected != nullptr) projected[i] = row_projected;
    if (!literal || i < literal_rows) {
      const float w = literal ? a2[i] : row_projected;
      for (int p = 0; p < k; ++p) {
        if (row[p] != 0.0f) s[p] += row[p] * w;
      }
    }
    if (gram != nullptr) kernels::AddRowGram(row, k, gram);
  }
}

// Turns each row of `m` (N×N′) in place into its MOA attention (Eq. 14-15):
//   m_ij ← softmax_j(LeakyReLU(logit(r_i + s_j, m_ij))),
// with the element operations, roundings and order of the composed
// OuterSum, Add, LeakyRelu and SoftmaxRows. When `nonnegative` is
// non-null it records which LeakyReLU branch each logit took.
template <typename Logit>
Tensor AttentionRows(Tensor m, const float* r, const float* s, float slope,
                     Logit logit, uint8_t* nonnegative) {
  const int k = m.cols();
  float* out = m.mutable_data();
  ParallelFor(0, m.rows(), RowGrain(k), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float* row = out + i * k;
      for (int j = 0; j < k; ++j) {
        const float z = logit(r[i] + s[j], row[j]);
        const bool keep = z >= 0.0f;
        if (nonnegative != nullptr) nonnegative[i * k + j] = keep;
        row[j] = keep ? z : slope * z;
      }
      float mx = row[0];
      for (int j = 1; j < k; ++j) mx = std::max(mx, row[j]);
      double sum = 0.0;
      for (int j = 0; j < k; ++j) {
        row[j] = std::exp(row[j] - mx);
        sum += row[j];
      }
      const float inv = static_cast<float>(1.0 / sum);
      for (int j = 0; j < k; ++j) row[j] *= inv;
    }
  });
  return m;
}

// What a taped MOA's backward reads besides M, X (C, or H with GCont
// ablated) and the parameters. Untaped calls build none of it.
struct MoaTape {
  std::vector<uint8_t> nonnegative;  // LeakyReLU branch of each logit
  std::vector<float> projected;      // p = C·a₂ (invariant relaxation)
  Tensor gram;                       // G = CᵀC (bilinear GCont)
};

// MOA's forward (Eq. 14-15), shared by both grad modes. With GCont: one
// ScanGContRows pass, the C·G GEMM into M's buffer and AttentionRows.
// With GCont ablated: r = H·a₁, s = S·a₂ and H·Sᵀ through MatMul, then
// AttentionRows. Fills `tape` when non-null; a taped MOA pins its GEMMs
// to fp32, so only an untaped one can dispatch int8.
Tensor AttentionForward(const CoarseningConfig& config, const Tensor& c_or_h,
                        const Tensor& seeds, const Tensor& a1,
                        const Tensor& a2, MoaTape* tape) {
  NoGradGuard no_grad;  // the pieces are values, not tape nodes
  std::optional<PrecisionScope> fp32;
  const int n = c_or_h.rows(), k = config.num_clusters;
  uint8_t* nonnegative = nullptr;
  if (tape != nullptr) {
    fp32.emplace(Precision::kFp32);
    tape->nonnegative.resize(static_cast<size_t>(n) * k);
    nonnegative = tape->nonnegative.data();
  }
  const float slope = config.leaky_slope;
  Tensor r, s;
  if (config.use_gcont) {
    HAP_CHECK_EQ(c_or_h.cols(), k);
    const bool literal = config.paper_literal_relaxation;
    r = Tensor(n, 1);
    s = Tensor(k, 1);
    Tensor gram = config.bilinear_moa ? Tensor(k, k) : Tensor();
    float* projected = nullptr;
    if (tape != nullptr && !literal) {
      tape->projected.resize(n);
      projected = tape->projected.data();
    }
    ScanGContRows(c_or_h.data(), n, k, a1.data(), a2.data(), literal,
                  r.mutable_data(), s.mutable_data(),
                  gram.defined() ? gram.mutable_data() : nullptr, projected);
    const float inv_n = 1.0f / static_cast<float>(n);
    if (!literal) {
      for (int j = 0; j < k; ++j) s.mutable_data()[j] *= inv_n;
    }
    if (gram.defined()) {
      if (tape != nullptr) tape->gram = gram;
      return AttentionRows(
          MatMul(c_or_h, gram), r.data(), s.data(), slope,
          [inv_n](float base, float e) { return base + e * inv_n; },
          nonnegative);
    }
  } else {
    HAP_CHECK_EQ(c_or_h.cols(), config.in_features);
    r = MatMul(c_or_h, a1);
    s = MatMul(seeds, a2);
    if (config.bilinear_moa) {
      return AttentionRows(MatMul(c_or_h, Transpose(seeds)), r.data(),
                           s.data(), slope,
                           [](float base, float e) { return base + e; },
                           nonnegative);
    }
  }
  return AttentionRows(Tensor(n, k), r.data(), s.data(), slope,
                       [](float base, float) { return base; }, nonnegative);
}

// MOA's backward from M (the node's data), the LeakyReLU branches, X, G
// and p. The node's parents are {X, a₁, a₂}, or {H, S, a₁, a₂} with GCont
// ablated (S the cluster seeds). With Z the logits and dZ their gradient
// (softmax, then LeakyReLU), dr and ds are dZ's row and column sums.
void AttentionBackward(const CoarseningConfig& config, const MoaTape& tape,
                       internal::TensorImpl& node) {
  const bool gcont = node.parents.size() == 3;
  internal::TensorImpl& px = *node.parents[0];
  internal::TensorImpl& pa1 = *node.parents[gcont ? 1 : 2];
  internal::TensorImpl& pa2 = *node.parents[gcont ? 2 : 3];
  const int n = node.rows, k = node.cols, w = px.cols;
  const float slope = config.leaky_slope;
  std::vector<float> dz(static_cast<size_t>(n) * k), dr(n), ds(k, 0.0f);
  ParallelFor(0, n, RowGrain(k), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const size_t row = static_cast<size_t>(i) * k;
      const float* m = node.data.data() + row;
      const float* g = node.grad.data() + row;
      double dot = 0.0;
      for (int j = 0; j < k; ++j) dot += g[j] * m[j];
      float row_sum = 0.0f;
      for (int j = 0; j < k; ++j) {
        float v = m[j] * (g[j] - static_cast<float>(dot));
        if (!tape.nonnegative[row + j]) v *= slope;
        dz[row + j] = v;
        row_sum += v;
      }
      dr[i] = row_sum;
    }
  });
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) ds[j] += dz[static_cast<size_t>(i) * k + j];
  }
  const float* x = px.data.data();
  const float* a1 = pa1.data.data();
  const float* a2 = pa2.data.data();
  float* gx = GradOf(px);
  float* ga1 = GradOf(pa1);
  float* ga2 = GradOf(pa2);
  // r = X·a₁.
  if (gx != nullptr) AddMatMul(dr.data(), a1, gx, n, 1, w);
  if (ga1 != nullptr) AddMatMulAt(x, dr.data(), ga1, n, w, 1);

  if (!gcont) {
    // s = S·a₂, and the interaction E = H·Sᵀ.
    internal::TensorImpl& pseeds = *node.parents[1];
    const float* seeds = pseeds.data.data();
    float* gseeds = GradOf(pseeds);
    if (gseeds != nullptr) AddMatMul(ds.data(), a2, gseeds, k, 1, w);
    if (ga2 != nullptr) AddMatMulAt(seeds, ds.data(), ga2, k, w, 1);
    if (!config.bilinear_moa) return;
    if (gx != nullptr) AddMatMul(dz.data(), seeds, gx, n, k, w);
    if (gseeds != nullptr) AddMatMulAt(dz.data(), x, gseeds, n, k, w);
    return;
  }

  const float inv_n = 1.0f / static_cast<float>(n);
  if (config.paper_literal_relaxation) {
    // s_j = Σ_{i < min(N, N′)} C_ij a₂_i.
    const int rows = std::min(n, k);
    if (gx != nullptr) AddMatMul(a2, ds.data(), gx, rows, 1, k);
    if (ga2 != nullptr) AddMatMul(x, ds.data(), ga2, rows, k, 1);
  } else {
    // s = Cᵀp/N with p = C·a₂.
    for (float& v : ds) v *= inv_n;
    std::vector<float> dp(n, 0.0f);
    AddMatMul(x, ds.data(), dp.data(), n, k, 1);
    if (gx != nullptr) {
      AddMatMul(tape.projected.data(), ds.data(), gx, n, 1, k);
      AddMatMul(dp.data(), a2, gx, n, 1, k);
    }
    if (ga2 != nullptr) AddMatMulAt(x, dp.data(), ga2, n, k, 1);
  }
  if (!config.bilinear_moa || gx == nullptr) return;
  // The interaction E = C·G/N with G = CᵀC: dC += dE·Gᵀ + C·(dG + dGᵀ)
  // with dG = Cᵀ·dE.
  for (float& v : dz) v *= inv_n;
  const float* gram = tape.gram.data();
  AddMatMulBt(dz.data(), gram, gx, n, k, k);
  std::vector<float> dgram(static_cast<size_t>(k) * k, 0.0f);
  AddMatMulAt(x, dz.data(), dgram.data(), n, k, k);
  std::vector<float> sym(dgram.size());
  for (int p = 0; p < k; ++p) {
    for (int q = 0; q < k; ++q) {
      sym[static_cast<size_t>(p) * k + q] =
          dgram[static_cast<size_t>(p) * k + q] +
          dgram[static_cast<size_t>(q) * k + p];
    }
  }
  AddMatMul(x, sym.data(), gx, n, k, k);
}

}  // namespace

Tensor CoarseningModule::ComputeGCont(const Tensor& h) const {
  HAP_CHECK(config_.use_gcont);
  HAP_CHECK_EQ(h.cols(), config_.in_features);
  return NormalizeGCont(MatMul(h, gcont_transform_));
}

Tensor CoarseningModule::NormalizeGCont(Tensor c) const {
  if (!config_.normalize_gcont) return c;
  if (!WillTape(c)) {
    Standardize(c.data(), c.mutable_data(), c.size());
    return c;
  }
  Tensor y(c.rows(), c.cols());
  const float stddev = Standardize(c.data(), y.mutable_data(), c.size());
  return TapeResult(std::move(y), {c},
                    [stddev](internal::TensorImpl& node) {
                      StandardizeBackward(stddev, node);
                    });
}

Tensor CoarseningModule::ComputeAttention(const Tensor& c_or_h) const {
  // cluster_seeds_ is undefined with GCont on; WillTape and TapeResult
  // skip it.
  if (!WillTape(c_or_h, cluster_seeds_, attn_row_, attn_col_)) {
    return AttentionForward(config_, c_or_h, cluster_seeds_, attn_row_,
                            attn_col_, nullptr);
  }
  MoaTape tape;
  Tensor m = AttentionForward(config_, c_or_h, cluster_seeds_, attn_row_,
                              attn_col_, &tape);
  return TapeResult(std::move(m),
                    {c_or_h, cluster_seeds_, attn_row_, attn_col_},
                    [config = config_, tape = std::move(tape)](
                        internal::TensorImpl& node) {
                      AttentionBackward(config, tape, node);
                    });
}

CoarseningModule::CoarsenProducts CoarseningModule::ComputeProducts(
    const Tensor& m, const Tensor& h, const GraphLevel& level) const {
  static obs::Counter* mode_dense =
      obs::GetCounter(obs::names::kCoarsenModeDense);
  static obs::Counter* mode_topk =
      obs::GetCounter(obs::names::kCoarsenModeTopk);
  static obs::Counter* topk_kept =
      obs::GetCounter(obs::names::kCoarsenTopkKept);
  static obs::Counter* topk_dropped =
      obs::GetCounter(obs::names::kCoarsenTopkDropped);
  static obs::Counter* fallback =
      obs::GetCounter(obs::names::kCoarsenSparseFallback);

  const CsrMatrix* csr = nullptr;
  if (config_.coarsen_mode == CoarsenMode::kTopkSparse) {
    csr = level.AdjacencyCsrOrNull();
    // No CSR view means the adjacency is taped (a coarsened inner level):
    // converting it would detach the tape, so the dense product runs.
    if (csr == nullptr) fallback->Increment();
  } else if (config_.coarsen_mode == CoarsenMode::kAuto) {
    // Mirror the level's own density-based dispatch: sparse input levels
    // take the top-k path, dense ones stay on the reference product.
    if (level.UseSparse()) csr = level.AdjacencyCsrOrNull();
  }

  CoarsenProducts out;
  if (csr != nullptr) {
    out.sparse = true;
    mode_topk->Increment();
    // One select-and-renormalise pass emits Mₖ as CSR; Eq. 17 and Eq. 18
    // then run on it directly, with no dense N×N' intermediate. Both
    // products are fp32 under every precision scope, and bit-identical to
    // the dense products over the masked Mₖ (docs/SPARSE.md).
    const SparseAssignment m_k = TopKAssignment(m, config_.topk);
    // Counts what Mₖ stores: kept entries that are exactly 0 are dropped.
    const int64_t kept = m_k.nnz();
    topk_kept->Add(static_cast<uint64_t>(kept));
    topk_dropped->Add(static_cast<uint64_t>(
        static_cast<int64_t>(m.rows()) * m.cols() - kept));
    out.h = AssignmentTransposeMatMul(m_k, h);
    // The fused CSR triple product streams A's nonzeros against Mₖ's
    // per-row entries.
    out.adj = CsrCoarsenAdjacency(*csr, m_k);
    return out;
  }
  mode_dense->Increment();
  Tensor m_t = Transpose(m);
  out.h = MatMul(m_t, h);  // Eq. 17
  // Eq. 18: A' = Mᵀ A M; the inner A·M goes through the level so sparse
  // input adjacencies use the CSR fast path. The adjacency products are
  // pinned to fp32 even under a reduced-precision serving scope
  // (tensor/quant.h): A' feeds the eval-time soft sampling
  // softmax(log A'/tau), whose 1/tau exponent turns a quantizer's
  // *absolute* error on small A' entries into O(1) logit shifts —
  // cluster-assignment flips, not smooth noise. Structure stays exact;
  // the O(N²·F) feature-path GEMMs keep the reduced-precision win and
  // these O(N²·N') products are a sliver of the forward.
  PrecisionScope structure_fp32(Precision::kFp32);
  out.adj = MatMul(m_t, level.Aggregate(m));
  return out;
}

CoarsenResult CoarseningModule::FormClusters(const Tensor& m,
                                             const Tensor& h,
                                             const GraphLevel& level) const {
  CoarsenProducts products = ComputeProducts(m, h, level);
  Tensor coarse_adj = std::move(products.adj);
  if (config_.use_gumbel) {
    coarse_adj =
        GumbelSoftSample(coarse_adj, config_.tau, &noise_rng_, training_);
  }
  return {std::move(products.h), GraphLevel(std::move(coarse_adj))};
}

CoarsenResult CoarseningModule::Forward(const Tensor& h,
                                        const GraphLevel& level) const {
  HAP_CHECK_EQ(h.rows(), level.num_nodes());
  HAP_TRACE_SCOPE("coarsen.forward");
  static obs::Counter* calls = obs::GetCounter(obs::names::kCoarsenCalls);
  static obs::Histogram* nodes_in =
      obs::GetHistogram(obs::names::kCoarsenNodesIn);
  static obs::Histogram* clusters_out =
      obs::GetHistogram(obs::names::kCoarsenClustersOut);
  static obs::Histogram* span_ns = obs::GetHistogram(obs::names::kCoarsenNs);
  calls->Increment();
  nodes_in->Record(static_cast<uint64_t>(level.num_nodes()));
  clusters_out->Record(static_cast<uint64_t>(config_.num_clusters));
  obs::ScopedTimerNs timer(span_ns);
  const Tensor m = config_.use_gcont ? ComputeAttention(ComputeGCont(h))
                                     : ComputeAttention(h);
  return FormClusters(m, h, level);
}

BatchedCoarsenResult CoarseningModule::ForwardBatched(
    const Tensor& h, const BatchedLevel& level) const {
  HAP_CHECK(SupportsBatched())
      << "this coarsening configuration requires per-graph execution";
  // Eval mode draws no Gumbel noise, so no graph needs a noise stream of
  // its own.
  HAP_CHECK(!training_) << "batched coarsening runs in eval mode only";
  const SegmentSpec& seg = level.segments;
  seg.Validate(h.rows());
  HAP_CHECK_EQ(h.cols(), config_.in_features);
  const int num_graphs = seg.num_segments();
  HAP_TRACE_SCOPE("coarsen.batched");
  static obs::Counter* calls = obs::GetCounter(obs::names::kCoarsenCalls);
  static obs::Histogram* nodes_in =
      obs::GetHistogram(obs::names::kCoarsenNodesIn);
  static obs::Histogram* clusters_out =
      obs::GetHistogram(obs::names::kCoarsenClustersOut);
  static obs::Histogram* span_ns = obs::GetHistogram(obs::names::kCoarsenNs);
  obs::ScopedTimerNs timer(span_ns);

  // The one cross-graph fusion: C₀ = H T over all rows at once. Rows are
  // independent, so each graph's slice holds its per-graph C bit-for-bit
  // in fp32 (docs/BATCHING.md).
  Tensor c0 = MatMul(h, gcont_transform_);

  std::vector<Tensor> parts;
  parts.reserve(num_graphs);
  std::vector<GraphLevel> new_levels;
  new_levels.reserve(num_graphs);
  for (int s = 0; s < num_graphs; ++s) {
    calls->Increment();
    nodes_in->Record(static_cast<uint64_t>(seg.size(s)));
    clusters_out->Record(static_cast<uint64_t>(config_.num_clusters));
    Tensor m = ComputeAttention(
        NormalizeGCont(SliceRows(c0, seg.begin(s), seg.end(s))));
    CoarsenResult coarse =
        FormClusters(m, SliceRows(h, seg.begin(s), seg.end(s)),
                     level.levels[s]);
    parts.push_back(std::move(coarse.h));
    new_levels.push_back(std::move(coarse.level));
  }
  BatchedCoarsenResult out;
  out.h = ConcatRows(parts);
  out.level.segments = SegmentSpec::FromSizes(
      std::vector<int>(num_graphs, config_.num_clusters));
  out.level.levels = std::move(new_levels);
  return out;
}

void CoarseningModule::CollectParameters(std::vector<Tensor>* out) const {
  if (config_.use_gcont) {
    out->push_back(gcont_transform_);
  } else {
    out->push_back(cluster_seeds_);
  }
  out->push_back(attn_row_);
  out->push_back(attn_col_);
}

}  // namespace hap
