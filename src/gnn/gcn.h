#ifndef HAP_GNN_GCN_H_
#define HAP_GNN_GCN_H_

#include "graph/batched_graph.h"
#include "graph/graph_level.h"
#include "tensor/module.h"
#include "tensor/tensor.h"

namespace hap {

/// Activation applied after a GNN layer.
enum class Activation { kNone, kRelu, kTanh };

/// Applies `activation` to `x`.
Tensor ApplyActivation(const Tensor& x, Activation activation);

/// Graph convolution layer (Kipf & Welling; Eq. 12):
///   H_{k+1} = act( D̃^{-1/2} Ã D̃^{-1/2} H_k W_k ).
///
/// Forward takes a level over the *raw* (possibly weighted, possibly
/// gradient-carrying) adjacency; normalisation happens inside so coarsened
/// graphs propagate gradients through their edge weights.
class GcnLayer : public Module {
 public:
  GcnLayer(int in_features, int out_features, Rng* rng,
           Activation activation = Activation::kRelu);

  /// h: (N, in); level views the (N, N) raw-weight adjacency (no
  /// self-loops required) and supplies the cached normalized operator.
  Tensor Forward(const Tensor& h, const GraphLevel& level) const;

  /// Batched forward over N concatenated graphs: propagation runs per
  /// segment against each graph's cached operator, the linear as one fused
  /// GEMM. Bit-equal per segment to Forward on that graph alone in fp32.
  Tensor ForwardBatched(const Tensor& h, const BatchedLevel& level) const;

  void CollectParameters(std::vector<Tensor>* out) const override;

  int in_features() const { return linear_.in_features(); }
  int out_features() const { return linear_.out_features(); }

 private:
  Linear linear_;
  Activation activation_;
};

}  // namespace hap

#endif  // HAP_GNN_GCN_H_
