#ifndef HAP_POOLING_TOPK_H_
#define HAP_POOLING_TOPK_H_

#include "gnn/gcn.h"
#include "pooling/readout.h"
#include "tensor/module.h"

namespace hap {

/// Keeps ceil(ratio * N) nodes, at least `min_nodes`.
int TopKKeepCount(int num_nodes, double ratio, int min_nodes = 1);

/// gPool (Graph U-Nets, Gao & Ji): node scores are the scalar projections
/// y = H p / ‖p‖ onto a trainable vector p; the top ceil(rN) nodes are kept
/// and gated by sigmoid(y). Table 3's strongest Top-K baseline.
class GPoolCoarsener : public Coarsener {
 public:
  GPoolCoarsener(int in_features, double ratio, Rng* rng);

  CoarsenResult Forward(const Tensor& h,
                        const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  Tensor projection_;  // (F, 1)
  double ratio_;
};

/// SAGPool (Lee et al.): scores come from a single GCN layer over (H, A),
/// so topology informs the ranking; kept nodes are gated by tanh(score).
class SagPoolCoarsener : public Coarsener {
 public:
  SagPoolCoarsener(int in_features, double ratio, Rng* rng);

  CoarsenResult Forward(const Tensor& h,
                        const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  GcnLayer score_layer_;
  double ratio_;
};

/// SortPooling (DGCNN, Zhang et al.): nodes are sorted by the last feature
/// channel (the continuous WL color), the top k rows are kept (zero-padded
/// when N < k) and flattened into a fixed (1, k*F) vector.
class SortPoolReadout : public Readout {
 public:
  explicit SortPoolReadout(int k);

  Tensor Forward(const Tensor& h, const GraphLevel& level) const override;
  void CollectParameters(std::vector<Tensor>* out) const override;
  int OutFeatures(int in_features) const override { return k_ * in_features; }

 private:
  int k_;
};

}  // namespace hap

#endif  // HAP_POOLING_TOPK_H_
