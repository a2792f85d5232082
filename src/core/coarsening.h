#ifndef HAP_CORE_COARSENING_H_
#define HAP_CORE_COARSENING_H_

#include "pooling/readout.h"
#include "tensor/module.h"

namespace hap {

/// Configuration for one HAP graph-coarsening module (Sec. 4.4).
struct CoarseningConfig {
  /// Input node-feature width F.
  int in_features = 64;
  /// Output cluster count N'.
  int num_clusters = 8;
  /// When false, the GCont preparation step (Eq. 13) is ablated: attention
  /// runs directly between node features and learned cluster seeds
  /// (a master-attention without global content guidance).
  bool use_gcont = true;
  /// When false, soft sampling (Eq. 19) is skipped and A' = MᵀAM is used
  /// directly (dense).
  bool use_gumbel = true;
  /// Gumbel-Softmax temperature; the paper fixes tau = 0.1.
  float tau = 0.1f;
  /// LeakyReLU slope in the MOA logits (Eq. 14).
  float leaky_slope = 0.2f;
  /// Standardise the GCont matrix (zero mean, unit variance over all
  /// entries, differentiable) before computing MOA logits. The additive
  /// logits a₁ᵀC_{i,:} + a₂ᵀĉ_j only produce row-dependent attention when
  /// values straddle the LeakyReLU kink at zero; without centering, most
  /// initialisations collapse to near-identical attention rows and the
  /// module trains erratically. Enabled by default.
  bool normalize_gcont = true;
  /// Add the bilinear interaction C_{i,:}·ĉ_j to the MOA logits. The
  /// purely additive form a₁ᵀC_{i,:} + a₂ᵀĉ_j of Eq. 14 computes *static*
  /// attention: every node ranks the clusters identically (up to the
  /// LeakyReLU kink) — the GATv2 critique applies verbatim — so cluster
  /// assignments cannot become node-dependent and training stalls. The
  /// dot-product term realises the "cross-attention" ingredient the paper
  /// says MOA synthesizes (Sec. 4.4.2) and makes the attention genuinely
  /// adaptive. Enabled by default; disable to study the literal Eq. 14.
  bool bilinear_moa = true;
  /// Normalise cluster formation by attention mass: H' = D_M⁻¹ Mᵀ H with
  /// D_M = diag(colsum M), i.e. each cluster is the attention-weighted
  /// *mean* of its members rather than the sum of Eq. 17. Off by default
  /// (paper-literal): sums grow with N, but that very growth carries the
  /// graph-size signal several tasks rely on (e.g. subgraph matching,
  /// where the partner's relative size is discriminative); fully
  /// size-invariant embeddings flatten it. Enable to study size-invariant
  /// pooling. The coarsened adjacency keeps the Eq. 18 form either way.
  bool normalize_cluster_mass = false;
  /// How A' = MᵀAM is computed (docs/SPARSE.md). kDense is the default —
  /// the bit-deterministic reference path every parity test pins. The
  /// sparse paths change numerics (top-k drops assignment mass) and are
  /// gated by accuracy parity instead; see CoarsenMode in
  /// pooling/readout.h for the per-mode semantics.
  CoarsenMode coarsen_mode = CoarsenMode::kDense;
  /// Per-row assignment budget for the top-k sparse path: each node keeps
  /// its k strongest cluster assignments. k >= num_clusters keeps the
  /// dense assignment as is (TopKAssignment stores every nonzero entry,
  /// unscaled).
  int topk = 4;
  /// When true, the MOA column operand uses the paper-literal relaxation of
  /// Claim 3: C_{:,j} ∈ ℝᴺ is truncated to its first N' entries. That
  /// truncation depends on node order, so it contradicts the paper's own
  /// Claim 2 (permutation invariance). The default (false) uses the
  /// order-invariant realisation ĉ_j = Cᵀ C_{:,j} / N — the column's
  /// content expressed in the cluster basis — which keeps both the
  /// cross-level comparison and Claim 2 intact. See DESIGN.md.
  bool paper_literal_relaxation = false;
};

/// HAP's graph coarsening module: GCont + MOA + cluster formation + soft
/// sampling (Algorithm 1).
///
/// Pipeline for an (N, F) level:
///   C = H T                      GCont, (N, N')            [Eq. 13]
///   M_ij = LeakyReLU(aᵀ[C_i,: ‖ C_:,j])  MOA logits        [Eq. 14]
///   M = row-softmax(M)                                     [Eq. 15]
///   H' = Mᵀ H,  A' = Mᵀ A M                                [Eq. 17-18]
///   Ã' = GumbelSoftSample(A')                              [Eq. 19]
///
/// The attention parameter a ∈ ℝ^{2N'} is stored split as a₁, a₂ ∈ ℝ^{N'};
/// the column operand C_:,j ∈ ℝᴺ is relaxed to its first N' entries
/// (zero-padded when N < N'), which Claim 3 shows leaves the logits
/// unchanged. Both "paddings" are realised by the truncated inner product
/// in ComputeAttention().
class CoarseningModule : public Coarsener {
 public:
  CoarseningModule(const CoarseningConfig& config, Rng* rng);

  using Coarsener::Forward;
  CoarsenResult Forward(const Tensor& h,
                        const GraphLevel& level) const override;

  /// Batched execution covers the GCont-based configurations the served
  /// models use; the ablated (!use_gcont) and paper-literal-relaxation
  /// configurations run per graph.
  bool SupportsBatched() const override {
    return config_.use_gcont && !config_.paper_literal_relaxation;
  }

  /// Eval-mode mirror of Forward() over N concatenated graphs (CHECK-fails
  /// in training mode): C₀ = H·T runs as one GEMM over all graphs, then
  /// each graph's slice of C₀ goes through the same attention, cluster
  /// formation and deterministic soft sampling as Forward(). Bit-equal
  /// per graph to Forward() in fp32. Does NOT update last_attention().
  BatchedCoarsenResult ForwardBatched(const Tensor& h,
                                      const BatchedLevel& level) const override;

  void CollectParameters(std::vector<Tensor>* out) const override;

  /// GCont matrix C = H T (Eq. 13). Exposed for tests and analysis.
  Tensor ComputeGCont(const Tensor& h) const;

  /// Normalised MOA matrix M (Eq. 14-15) for the given level. When GCont
  /// is ablated, `c_or_h` is the raw feature matrix H.
  Tensor ComputeAttention(const Tensor& c_or_h) const;

  /// Training mode toggles Gumbel noise in soft sampling.
  void set_training(bool training) override { training_ = training; }
  bool training() const { return training_; }

  /// Runtime override of config().coarsen_mode / config().topk (docs/
  /// SPARSE.md); `topk` < 1 keeps the configured budget. Used by the CLI
  /// flags and the serve loader, which construct models through the zoo
  /// and reconfigure afterwards.
  void set_coarsen_mode(CoarsenMode mode, int topk = 0) override {
    config_.coarsen_mode = mode;
    if (topk >= 1) config_.topk = topk;
  }

  /// Deterministically restarts the Gumbel noise stream (see
  /// Module::ReseedNoise; used by the data-parallel trainers).
  void ReseedNoise(uint64_t seed) override { noise_rng_ = Rng(seed); }

  /// The M matrix from the most recent Forward() (for the receptive-field
  /// analysis of Fig. 1 and the property tests).
  const Tensor& last_attention() const { return last_attention_; }

  const CoarseningConfig& config() const { return config_; }

 private:
  /// H' and A' for one level, plus which product path ran.
  struct CoarsenProducts {
    Tensor h;
    Tensor adj;
    bool sparse = false;
  };

  /// The mode-dispatched products (docs/SPARSE.md): dense MᵀH and MᵀAM,
  /// or the CSR top-k assignment with sparse MₖᵀH and fused MₖᵀAMₖ when the
  /// mode and the level's CSR availability allow it. Falls back to dense (and counts coarsen.sparse_fallback)
  /// when topk is requested but the level has no CSR view (taped inner
  /// levels).
  CoarsenProducts ComputeProducts(const Tensor& m, const Tensor& h,
                                  const GraphLevel& level) const;

  /// Applies config().normalize_gcont to a GCont matrix C (identity when
  /// the option is off).
  Tensor NormalizeGCont(Tensor c) const;

  /// Cluster formation and soft sampling for assignment `m` (Eq. 17-19).
  CoarsenResult FormClusters(const Tensor& m, const Tensor& h,
                             const GraphLevel& level) const;

  CoarseningConfig config_;
  Tensor gcont_transform_;  // T: (F, N')          (when use_gcont)
  Tensor cluster_seeds_;    // (N', F)              (when !use_gcont)
  Tensor attn_row_;         // a₁
  Tensor attn_col_;         // a₂
  mutable Rng noise_rng_;
  bool training_ = true;
  mutable Tensor last_attention_;
};

}  // namespace hap

#endif  // HAP_CORE_COARSENING_H_
