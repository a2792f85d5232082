#ifndef HAP_GRAPH_PROPAGATION_H_
#define HAP_GRAPH_PROPAGATION_H_

#include "tensor/tensor.h"

namespace hap {

/// Differentiable adjacency-normalisation helpers. Unlike
/// Graph::NormalizedAdjacency() (which operates on a fixed input graph),
/// these run on tensors so they can normalise the coarsened adjacency
/// A' = Mᵀ A M, which carries gradient (Eq. 18).
///
/// GraphLevel (graph/graph_level.h) caches the results of these functions
/// for gradient-free adjacencies; consumers should normally go through it
/// rather than calling these directly in per-forward code.

/// Ã = A + I (adds self-loops).
Tensor AddIdentity(const Tensor& a);

/// Symmetric normalisation D̃^{-1/2} Ã D̃^{-1/2} with Ã = A + I (Eq. 12).
/// Degrees are floored at `eps` so isolated rows do not divide by zero.
/// One op: a degree pass and a scale pass, memcmp-equal in fp32 to the
/// composed AddIdentity, ReduceSumCols, ClampMin, Sqrt, Div, ScaleRows and
/// ScaleCols it replaces. A taped result records one node whose backward
/// reads only its output and the degrees.
Tensor SymNormalize(const Tensor& a, float eps = 1e-9f);

/// Row-stochastic normalisation D̃^{-1} Ã (cheaper; used by DiffPool-style
/// layers on dense coarsened graphs).
Tensor RowNormalize(const Tensor& a, float eps = 1e-9f);

/// Additive attention mask restricting softmax logits to the self-loop
/// augmented neighbourhood Ã = A + I: exact non-edges receive a hard -1e9
/// (no logit magnitude can leak across), edges receive the differentiable
/// bias log(w) so weighted coarsened edges scale attention by their weight
/// (softmax(e + log w) ∝ w·exp(e)). Used by GAT and ASAP.
Tensor NeighborhoodLogMask(const Tensor& a);

}  // namespace hap

#endif  // HAP_GRAPH_PROPAGATION_H_
