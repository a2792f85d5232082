#ifndef HAP_CORE_HAP_MODEL_H_
#define HAP_CORE_HAP_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/coarsening.h"
#include "core/embedder.h"

namespace hap {

/// Full-model configuration (Sec. 6.1.3 defaults: two embedding layers
/// before each of two coarsening modules).
struct HapConfig {
  EncoderKind encoder = EncoderKind::kGcn;
  /// Input feature width F of the dataset's featurisation.
  int feature_dim = 8;
  /// Hidden/node-embedding width (64 for classification per the paper).
  int hidden_dim = 64;
  /// GNN layers per node & cluster embedding stage.
  int encoder_layers = 2;
  /// Cluster counts per coarsening module; the final entry of 1 realises
  /// "coarsened to a 1D vector at the final graph embedding layer".
  std::vector<int> cluster_sizes = {8, 1};
  bool use_gcont = true;
  bool use_gumbel = true;
  float tau = 0.1f;
  /// Fine-grained MOA switches (bilinear_moa, paper_literal_relaxation,
  /// normalize_gcont, leaky_slope) copied into every coarsening module;
  /// in_features / num_clusters / use_gcont / use_gumbel / tau are
  /// overridden by the fields above.
  CoarseningConfig moa_prototype;
};

/// Which module sits in the coarsening slot — HAP's own module or one of
/// the Table 5 ablation replacements.
enum class CoarsenerKind {
  kHap,          // GCont + MOA coarsening module
  kMeanPool,     // HAP-MeanPool
  kMeanAttPool,  // HAP-MeanAttPool
  kSagPool,      // HAP-SAGPool
  kDiffPool,     // HAP-DiffPool
};

/// Human-readable name ("HAP", "HAP-MeanPool", ...).
std::string CoarsenerKindName(CoarsenerKind kind);

/// Adapts a dimension-preserving flat Readout into a 1-cluster Coarsener so
/// flat poolers can occupy HAP's coarsening slot (Table 5 ablation).
/// The coarsened adjacency is the 1x1 matrix [1].
class ReadoutCoarsener : public Coarsener {
 public:
  explicit ReadoutCoarsener(std::unique_ptr<Readout> readout);

  CoarsenResult Forward(const Tensor& h,
                        const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  std::unique_ptr<Readout> readout_;
};

/// Builds the full HAP hierarchical model (Fig. 2): `encoder_layers`-deep
/// GNN stages alternating with CoarseningModules of the configured sizes.
std::unique_ptr<HierarchicalEmbedder> MakeHapModel(const HapConfig& config,
                                                   Rng* rng);

/// Builds a Table 5 ablation variant: identical skeleton with the
/// coarsening slots replaced by `kind`.
std::unique_ptr<HierarchicalEmbedder> MakeHapVariant(CoarsenerKind kind,
                                                     const HapConfig& config,
                                                     Rng* rng);

}  // namespace hap

#endif  // HAP_CORE_HAP_MODEL_H_
