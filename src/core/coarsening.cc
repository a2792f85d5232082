#include "core/coarsening.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/gumbel.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

Tensor CoarseningModule::ComputeGCont(const Tensor& h) const {
  HAP_CHECK(config_.use_gcont);
  HAP_CHECK_EQ(h.cols(), config_.in_features);
  return NormalizeGCont(MatMul(h, gcont_transform_));
}

Tensor CoarseningModule::NormalizeGCont(Tensor c) const {
  if (!config_.normalize_gcont) return c;
  // Differentiable whole-matrix standardisation; see the config comment.
  const int n = c.rows(), k = c.cols();
  Tensor mean = ReduceMeanAll(c);  // (1,1)
  Tensor mean_full =
      MatMul(Tensor::Ones(n, 1), MatMul(mean, Tensor::Ones(1, k)));
  Tensor centered = Sub(c, mean_full);
  Tensor stddev =
      Sqrt(AddScalar(ReduceMeanAll(Square(centered)), 1e-6f));  // (1,1)
  Tensor stddev_full =
      MatMul(Tensor::Ones(n, 1), MatMul(stddev, Tensor::Ones(1, k)));
  return Div(centered, stddev_full);
}

Tensor CoarseningModule::ComputeAttention(const Tensor& c_or_h) const {
  const int n = c_or_h.rows();
  Tensor logits;
  if (config_.use_gcont) {
    const Tensor& c = c_or_h;
    HAP_CHECK_EQ(c.cols(), config_.num_clusters);
    Tensor col_scores;  // (N', 1)
    if (config_.paper_literal_relaxation) {
      // Paper-literal Claim 3: the comparison of C_{:,j} ∈ ℝᴺ against
      // a₂ ∈ ℝ^{N'} uses only the first min(N, N') entries; missing
      // entries are implicit zero padding. Order-dependent (see header).
      const int effective = std::min(n, config_.num_clusters);
      Tensor c_block = SliceRows(c, 0, effective);           // (eff, N')
      Tensor a2_block = SliceRows(attn_col_, 0, effective);  // (eff, 1)
      col_scores = MatMul(Transpose(c_block), a2_block);
    } else {
      // Invariant relaxation: s₂_j = a₂ · ĉ_j with ĉ_j = Cᵀ C_{:,j} / N,
      // i.e. the column compared through C's own content. Summing over all
      // source nodes makes the operand permutation invariant (Claim 2).
      Tensor projected = MatMul(c, attn_col_);  // (N, 1)
      col_scores = MulScalar(MatMul(Transpose(c), projected),
                             1.0f / static_cast<float>(n));
    }
    if (config_.bilinear_moa && !GradEnabled() &&
        PrecisionScope::Current() != Precision::kFp32) {
      // Reduced-precision eval folds the whole MOA scoring into one
      // fused GEMM:  s₁_i + s₂_j + (C CᵀC/N)_{ij} = (C·W)_{ij} + s₂_j
      // with W = a₁𝟙ᵀ + CᵀC/N (since (C·a₁𝟙ᵀ)_{ij} = s₁_i), so the
      // dominant N·N'² product runs quantized with the bias+LeakyReLU
      // epilogue fused into its dequant pass. fp32 keeps the composed
      // ops below bit-for-bit — this path never changes fp32 results.
      Tensor w = Add(
          MulScalar(MatMul(Transpose(c), c), 1.0f / static_cast<float>(n)),
          MatMul(attn_row_, Tensor::Ones(1, config_.num_clusters)));
      return SoftmaxRows(MatMulBiasLeakyRelu(
          c, w, Transpose(col_scores), config_.leaky_slope));  // Eq. 14-15
    }
    // Row operand: s₁_i = a₁ · C_{i,:}.
    Tensor row_scores = MatMul(c, attn_row_);              // (N, 1)
    logits = OuterSum(row_scores, Transpose(col_scores));  // (N, N')
    if (config_.bilinear_moa) {
      // Cross-attention interaction C_{i,:}·ĉ_j with ĉ_j = CᵀC_{:,j}/N:
      // the node-dependent term that makes MOA adaptive (see the config
      // comment). (C Cᵀ C)/N computed right-to-left: O(N·N'²).
      Tensor interaction = MulScalar(
          MatMul(c, MatMul(Transpose(c), c)), 1.0f / static_cast<float>(n));
      logits = Add(logits, interaction);
    }
  } else {
    // Ablated GCont: attention between node features and cluster seeds.
    const Tensor& h = c_or_h;
    HAP_CHECK_EQ(h.cols(), config_.in_features);
    Tensor row_scores = MatMul(h, attn_row_);              // (N, 1)
    Tensor col_scores = MatMul(cluster_seeds_, attn_col_);  // (N', 1)
    logits = OuterSum(row_scores, Transpose(col_scores));
    if (config_.bilinear_moa) {
      // Node-feature · cluster-seed interaction.
      logits = Add(logits, MatMul(h, Transpose(cluster_seeds_)));
    }
  }
  return SoftmaxRows(LeakyRelu(logits, config_.leaky_slope));  // Eq. 14-15
}

namespace {

// Mass-normalised cluster formation H' = D_M⁻¹ Mᵀ H (see
// normalize_cluster_mass), from MᵀH and M's column sums: each cluster
// becomes the attention-weighted mean of its members.
Tensor DivideByClusterMass(const Tensor& mt_h, const Tensor& column_mass) {
  Tensor mass = ClampMin(column_mass, 1e-9f);  // (N', 1)
  Tensor inv_mass = Div(Tensor::Ones(mass.rows(), 1), mass);
  return ScaleRows(mt_h, inv_mass);
}

}  // namespace

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
    const int64_t rows = m.rows(), cols = m.cols();
    const int64_t kept =
        rows * std::min<int64_t>(config_.topk, cols);
    topk_kept->Add(static_cast<uint64_t>(kept));
    topk_dropped->Add(static_cast<uint64_t>(rows * cols - kept));
    // One select-and-renormalise pass emits Mₖ as CSR; Eq. 17 and Eq. 18
    // then run on it directly, with no dense N×N' intermediate. Both
    // products are fp32 under every precision scope, and bit-identical to
    // the dense products over the masked Mₖ (docs/SPARSE.md).
    const SparseAssignment m_k = TopKAssignment(m, config_.topk);
    out.h = AssignmentTransposeMatMul(m_k, h);
    if (config_.normalize_cluster_mass) {
      out.h = DivideByClusterMass(out.h, AssignmentColumnSums(m_k));
    }
    // The fused CSR triple product streams A's nonzeros against Mₖ's
    // per-row entries.
    out.adj = CsrCoarsenAdjacency(*csr, m_k);
    return out;
  }
  mode_dense->Increment();
  Tensor m_t = Transpose(m);
  out.h = MatMul(m_t, h);  // Eq. 17
  if (config_.normalize_cluster_mass) {
    out.h = DivideByClusterMass(out.h, ReduceSumCols(m_t));
  }
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
  return CoarsenResult(std::move(products.h), std::move(coarse_adj));
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
  Tensor m = config_.use_gcont ? ComputeAttention(ComputeGCont(h))
                               : ComputeAttention(h);
  last_attention_ = m;
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
