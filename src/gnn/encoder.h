#ifndef HAP_GNN_ENCODER_H_
#define HAP_GNN_ENCODER_H_

#include <memory>
#include <vector>

#include "gnn/gat.h"
#include "gnn/gcn.h"
#include "gnn/gin.h"
#include "tensor/module.h"

namespace hap {

/// Which message-passing layer the node & cluster embedding stage uses.
/// Sec. 4.3: "we choose to employ a two-layer GAT or GCN"; kGin is the sum
/// aggregator of the SumPool baseline [36].
enum class EncoderKind { kGcn, kGat, kGin };

/// A stack of GNN layers mapping (H: N x in, A: N x N) -> (N x out).
/// Hidden layers use ReLU; the final layer's activation is configurable
/// (kNone by default so downstream attention sees unsquashed features).
class GnnEncoder : public Module {
 public:
  /// `dims` = {in, hidden..., out}; e.g. {7, 64, 64} is the paper's
  /// two-layer configuration.
  GnnEncoder(EncoderKind kind, const std::vector<int>& dims, Rng* rng,
             Activation final_activation = Activation::kNone);

  Tensor Forward(const Tensor& h, const GraphLevel& level) const;

  /// Batched forward over N concatenated graphs (docs/BATCHING.md):
  /// bit-equal per segment to Forward on each graph alone in fp32.
  Tensor ForwardBatched(const Tensor& h, const BatchedLevel& level) const;

  void CollectParameters(std::vector<Tensor>* out) const override;

  int out_features() const { return out_features_; }
  EncoderKind kind() const { return kind_; }

 private:
  EncoderKind kind_;
  int out_features_;
  std::vector<std::unique_ptr<GcnLayer>> gcn_layers_;
  std::vector<std::unique_ptr<GatLayer>> gat_layers_;
  std::vector<std::unique_ptr<GinLayer>> gin_layers_;
};

}  // namespace hap

#endif  // HAP_GNN_ENCODER_H_
