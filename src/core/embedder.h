#ifndef HAP_CORE_EMBEDDER_H_
#define HAP_CORE_EMBEDDER_H_

#include <memory>
#include <vector>

#include "gnn/encoder.h"
#include "graph/batched_graph.h"
#include "graph/graph_level.h"
#include "pooling/readout.h"
#include "tensor/module.h"

namespace hap {

/// Anything that maps a graph level (H: N x F_in, A: N x N) to one or more
/// graph-level embeddings. Hierarchical models return one embedding per
/// coarsening level (coarsest last) so losses can use the hierarchical
/// similarity measure of Sec. 4.5; flat models return a single level.
class GraphEmbedder : public Module {
 public:
  ~GraphEmbedder() override = default;

  /// Per-level graph embeddings, each (1, embedding_dim()), coarsest last.
  virtual std::vector<Tensor> EmbedLevels(const Tensor& h,
                                          const GraphLevel& level) const = 0;

  /// Compatibility shim wrapping a bare adjacency in an ephemeral level.
  /// Derived classes re-expose it with `using GraphEmbedder::EmbedLevels;`.
  std::vector<Tensor> EmbedLevels(const Tensor& h,
                                  const Tensor& adjacency) const {
    return EmbedLevels(h, GraphLevel(adjacency));
  }

  /// The final (coarsest) graph-level embedding h_G.
  Tensor Embed(const Tensor& h, const GraphLevel& level) const {
    return EmbedLevels(h, level).back();
  }
  Tensor Embed(const Tensor& h, const Tensor& adjacency) const {
    return EmbedLevels(h, adjacency).back();
  }

  virtual int embedding_dim() const = 0;

  /// Number of embeddings EmbedLevels returns (1 for flat embedders).
  virtual int NumLevels() const { return 1; }

  /// Toggles training-only stochasticity (Gumbel noise in HAP).
  virtual void set_training(bool training) { (void)training; }

  /// Selects how hierarchical coarseners compute A' = MᵀAM (docs/
  /// SPARSE.md); flat embedders have no coarsening step and ignore it.
  virtual void set_coarsen_mode(CoarsenMode mode, int topk = 0) {
    (void)mode;
    (void)topk;
  }

  /// True when EmbedLevelsBatched mirrors EmbedLevels for this
  /// architecture/configuration; callers must fall back to per-graph
  /// execution otherwise (docs/BATCHING.md).
  virtual bool SupportsBatched() const { return false; }

  /// Eval-only batched EmbedLevels over N concatenated graphs: per-level
  /// embeddings, each (N_graphs, embedding_dim()), with row g bit-equal to
  /// graph g's EmbedLevels output in fp32. Run it in eval mode under
  /// NoGradGuard: with grad enabled on the parameters it CHECK-fails
  /// instead of taping. Only valid when SupportsBatched().
  virtual std::vector<Tensor> EmbedLevelsBatched(
      const BatchedGraph& batch) const;
};

/// GNN encoder + flat readout: the architecture of every universal /
/// Top-K-readout baseline in Table 3.
class FlatEmbedder : public GraphEmbedder {
 public:
  FlatEmbedder(std::unique_ptr<GnnEncoder> encoder,
               std::unique_ptr<Readout> readout);

  using GraphEmbedder::EmbedLevels;
  std::vector<Tensor> EmbedLevels(const Tensor& h,
                                  const GraphLevel& level) const override;
  bool SupportsBatched() const override {
    return readout_->SupportsBatched();
  }
  std::vector<Tensor> EmbedLevelsBatched(
      const BatchedGraph& batch) const override;
  int embedding_dim() const override { return embedding_dim_; }
  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  std::unique_ptr<GnnEncoder> encoder_;
  std::unique_ptr<Readout> readout_;
  int embedding_dim_;
};

/// The hierarchical architecture of Fig. 2: alternating node & cluster
/// embedding stages and coarsening modules. Level k's graph embedding is
/// the mean over cluster features after the k-th coarsening.
/// HAP, HAP-x ablations, DiffPool/ASAP-style pipelines are all instances —
/// they differ only in the injected Coarseners.
class HierarchicalEmbedder : public GraphEmbedder {
 public:
  /// encoders.size() must equal coarseners.size(); stage k runs
  /// encoders[k] then coarseners[k].
  HierarchicalEmbedder(std::vector<std::unique_ptr<GnnEncoder>> encoders,
                       std::vector<std::unique_ptr<Coarsener>> coarseners);

  using GraphEmbedder::EmbedLevels;
  std::vector<Tensor> EmbedLevels(const Tensor& h,
                                  const GraphLevel& level) const override;
  bool SupportsBatched() const override;
  std::vector<Tensor> EmbedLevelsBatched(
      const BatchedGraph& batch) const override;
  int embedding_dim() const override { return embedding_dim_; }
  void CollectParameters(std::vector<Tensor>* out) const override;
  void set_training(bool training) override;
  void ReseedNoise(uint64_t seed) override;

  /// Forwards to every stage's coarsener (docs/SPARSE.md).
  void set_coarsen_mode(CoarsenMode mode, int topk = 0) override;

  int NumLevels() const override {
    return static_cast<int>(coarseners_.size());
  }
  int num_levels() const { return NumLevels(); }
  const Coarsener& coarsener(int level) const { return *coarseners_[level]; }

 private:
  std::vector<std::unique_ptr<GnnEncoder>> encoders_;
  std::vector<std::unique_ptr<Coarsener>> coarseners_;
  int embedding_dim_;
};

/// GCN-concat baseline (first row of Table 3): mean readouts of every GCN
/// layer's node representations, concatenated.
class GcnConcatEmbedder : public GraphEmbedder {
 public:
  GcnConcatEmbedder(int in_features, int hidden_dim, int num_layers,
                    Rng* rng);

  using GraphEmbedder::EmbedLevels;
  std::vector<Tensor> EmbedLevels(const Tensor& h,
                                  const GraphLevel& level) const override;
  bool SupportsBatched() const override { return true; }
  std::vector<Tensor> EmbedLevelsBatched(
      const BatchedGraph& batch) const override;
  int embedding_dim() const override { return embedding_dim_; }
  void CollectParameters(std::vector<Tensor>* out) const override;

 private:
  std::vector<std::unique_ptr<GcnLayer>> layers_;
  int embedding_dim_;
};

}  // namespace hap

#endif  // HAP_CORE_EMBEDDER_H_
