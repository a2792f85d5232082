#ifndef HAP_MATCHING_GMN_H_
#define HAP_MATCHING_GMN_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/coarsening.h"
#include "graph/graph_level.h"
#include "tensor/module.h"

namespace hap {

/// Configuration for the Graph Matching Network baseline.
struct GmnConfig {
  int feature_dim = 8;
  int hidden_dim = 32;
  int layers = 3;
  /// Cluster count of the HAP coarsening module when pooling is kHap.
  int hap_clusters = 4;
};

/// Graph Matching Network (Li et al., ICML'19): pairwise embedding where
/// every propagation layer mixes within-graph messages with *cross-graph*
/// attention (Eq. 5 family):
///   μ_i = h_i − Σ_j softmax_j(h_i · h'_j) h'_j
///   h_i ← ReLU([h_i ‖ mean-neighbour ‖ μ_i] W)
/// Readout is GMN's gated sum — or, for the GMN-HAP variant of Table 4,
/// HAP's graph coarsening module followed by a mean over clusters.
class GmnModel : public Module {
 public:
  enum class Pooling { kGatedSum, kHapCoarsen };

  GmnModel(const GmnConfig& config, Pooling pooling, Rng* rng);

  /// Joint pair embedding; each output is (1, hidden_dim). The levels'
  /// cached row-normalized operators are reused across all propagation
  /// layers (and across epochs when the levels come from PrepareGraph).
  std::pair<Tensor, Tensor> EmbedPair(const Tensor& h1, const GraphLevel& g1,
                                      const Tensor& h2,
                                      const GraphLevel& g2) const;

  void CollectParameters(std::vector<Tensor>* out) const override;
  void set_training(bool training);
  int embedding_dim() const { return config_.hidden_dim; }

 private:
  /// One propagation step updating both graphs jointly.
  std::pair<Tensor, Tensor> Propagate(const Tensor& h1, const GraphLevel& g1,
                                      const Tensor& h2, const GraphLevel& g2,
                                      int layer) const;
  Tensor Pool(const Tensor& h, const GraphLevel& level) const;

  GmnConfig config_;
  Pooling pooling_;
  Linear input_proj_;
  std::vector<std::unique_ptr<Linear>> update_layers_;  // (3F -> F) each
  // Gated-sum readout parameters.
  std::unique_ptr<Linear> gate_;
  std::unique_ptr<Linear> value_;
  // HAP pooling replacement.
  std::unique_ptr<CoarseningModule> hap_coarsener_;
};

}  // namespace hap

#endif  // HAP_MATCHING_GMN_H_
