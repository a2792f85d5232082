#ifndef HAP_POOLING_READOUT_H_
#define HAP_POOLING_READOUT_H_

#include <string>
#include <utility>
#include <vector>

#include "graph/batched_graph.h"
#include "graph/graph_level.h"
#include "tensor/module.h"
#include "tensor/tensor.h"

namespace hap {

/// A flat pooler: collapses node features (N, F) + a graph level (its
/// (N, N) adjacency view) into a single graph-level embedding (1, F_out).
/// Implementations cover the "universal" and "Top-K" baseline families of
/// Table 3.
class Readout : public Module {
 public:
  ~Readout() override = default;

  virtual Tensor Forward(const Tensor& h, const GraphLevel& level) const = 0;

  /// Compatibility shim wrapping a bare adjacency in an ephemeral level.
  /// Derived classes re-expose it with `using Readout::Forward;`.
  Tensor Forward(const Tensor& h, const Tensor& adjacency) const {
    return Forward(h, GraphLevel(adjacency));
  }

  /// Output embedding width given `in_features` wide node features.
  virtual int OutFeatures(int in_features) const { return in_features; }

  /// True when ForwardBatched mirrors Forward for this readout. The
  /// parameter-free reductions (sum/mean/max) support batching; attention
  /// readouts fall back per graph (docs/BATCHING.md).
  virtual bool SupportsBatched() const { return false; }

  /// Batched readout over N concatenated graphs: (N_graphs, F_out), row g
  /// bit-equal to Forward on graph g alone. Only valid when
  /// SupportsBatched().
  virtual Tensor ForwardBatched(const Tensor& h,
                                const BatchedLevel& level) const;
};

/// How a hierarchical coarsener computes the next level's adjacency
/// A' = MᵀAM (docs/SPARSE.md):
///   kDense      — the original dense product; bit-deterministic and the
///                 reference every parity test pins.
///   kTopkSparse — assignment sparsification (top-k entries per MOA row)
///                 plus the fused CSR triple product that never
///                 materialises a dense N×N' intermediate. Changes
///                 numerics; gated by accuracy parity, not bit parity.
///   kAuto       — density-based dispatch mirroring GraphLevel::UseSparse
///                 (kSparseDispatchDensity): sparse input levels take the
///                 top-k path, dense levels (softmax-coarsened A') stay on
///                 the dense product.
enum class CoarsenMode {
  kDense,
  kTopkSparse,
  kAuto,
};

/// Canonical CLI spelling ("dense", "topk", "auto").
const char* CoarsenModeName(CoarsenMode mode);

/// Parses the CLI spelling; returns false on unknown values (strict flag
/// handling: a typo must fail up front, not silently train dense).
bool ParseCoarsenMode(const std::string& text, CoarsenMode* mode);

/// Result of one graph-coarsening step, carried primarily as a GraphLevel
/// so the next stage reuses its cached/CSR operators. The raw dense tensor
/// stays exposed for dense-backed levels because tests and aux-loss code
/// read it directly; it is undefined when the level is sparse-native
/// (never materialised densely).
struct CoarsenResult {
  CoarsenResult() = default;
  CoarsenResult(Tensor h_in, Tensor adjacency_in)
      : h(std::move(h_in)),
        adjacency(std::move(adjacency_in)),
        level(adjacency) {}
  CoarsenResult(Tensor h_in, GraphLevel level_in);

  Tensor h;          // (N', F) cluster features
  Tensor adjacency;  // (N', N') coarsened adjacency; undefined if sparse
  GraphLevel level;  // primary representation of the coarsened structure
};

/// Result of one batched coarsening step: concatenated cluster features
/// plus the next level's segment partition and per-graph adjacency views.
struct BatchedCoarsenResult {
  Tensor h;            // (sum of N'_g, F) cluster features
  BatchedLevel level;  // per-graph views over the coarsened adjacencies
};

/// A hierarchical pooler: maps a graph level (H, A) to a coarser level
/// (H', A'). The output size N' is implementation-defined — fixed for
/// assignment-based methods (DiffPool, StructPool, HAP's coarsening module)
/// and ratio-based for Top-K methods (gPool, SAGPool, ASAP).
class Coarsener : public Module {
 public:
  ~Coarsener() override = default;

  virtual CoarsenResult Forward(const Tensor& h,
                                const GraphLevel& level) const = 0;

  /// Compatibility shim wrapping a bare adjacency in an ephemeral level.
  /// Derived classes re-expose it with `using Coarsener::Forward;`.
  CoarsenResult Forward(const Tensor& h, const Tensor& adjacency) const {
    return Forward(h, GraphLevel(adjacency));
  }

  /// Toggles training-only stochasticity (HAP's Gumbel soft sampling);
  /// deterministic coarseners ignore it.
  virtual void set_training(bool training) { (void)training; }

  /// Selects how A' = MᵀAM is computed (docs/SPARSE.md). `topk` is the
  /// per-row assignment budget for the sparse path; values < 1 keep the
  /// coarsener's configured budget. Coarseners without a sparse path
  /// ignore the call (they stay dense).
  virtual void set_coarsen_mode(CoarsenMode mode, int topk = 0) {
    (void)mode;
    (void)topk;
  }

  /// True when ForwardBatched mirrors Forward for this coarsener's
  /// configuration (see docs/BATCHING.md for the supported set).
  virtual bool SupportsBatched() const { return false; }

  /// Eval-mode batched coarsening over N concatenated graphs, bit-equal
  /// per segment to Forward on each graph alone in fp32. Only valid when
  /// SupportsBatched().
  virtual BatchedCoarsenResult ForwardBatched(const Tensor& h,
                                              const BatchedLevel& level) const;
};

}  // namespace hap

#endif  // HAP_POOLING_READOUT_H_
