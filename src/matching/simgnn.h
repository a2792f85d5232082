#ifndef HAP_MATCHING_SIMGNN_H_
#define HAP_MATCHING_SIMGNN_H_

#include <memory>

#include "gnn/encoder.h"
#include "graph/graph_level.h"
#include "pooling/flat.h"
#include "tensor/module.h"

namespace hap {

/// SimGNN (Bai et al., WSDM'19) at the fidelity needed for Fig. 5:
/// a shared GCN encoder, the content-attention readout (MeanAttPool) and a
/// neural-tensor-network head predicting an absolute pairwise similarity in
/// (0, 1). It is trained with MSE against exp(-normalised exact GED) —
/// the "single-minded pursuit of pairwise absolute similarity" the paper
/// contrasts with HAP's relative objective (Sec. 6.4).
class SimGnnModel : public Module {
 public:
  SimGnnModel(int feature_dim, int hidden_dim, int ntn_slices, Rng* rng);

  /// Predicted similarity score for a pair, (1,1) in (0,1). Prepared
  /// levels (PrepareGraph) keep their cached operators across calls.
  Tensor PredictSimilarity(const Tensor& h1, const GraphLevel& g1,
                           const Tensor& h2, const GraphLevel& g2) const;

  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  Tensor EmbedOne(const Tensor& h, const GraphLevel& level) const;

  GnnEncoder encoder_;
  MeanAttReadout readout_;
  int hidden_dim_;
  int slices_;
  Tensor ntn_bilinear_;  // (F, K*F): K stacked bilinear slices
  Linear ntn_linear_;    // (2F -> K)
  Linear score_;         // (K -> 1)
};

}  // namespace hap

#endif  // HAP_MATCHING_SIMGNN_H_
