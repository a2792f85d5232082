#ifndef HAP_TRAIN_CLASSIFIER_H_
#define HAP_TRAIN_CLASSIFIER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/embedder.h"
#include "graph/datasets.h"
#include "train/prepared.h"

namespace hap {

/// Shared trainer knobs. Defaults follow Sec. 6.1.3 (Adam, lr 0.01 for
/// classification) scaled to the synthetic corpora.
struct TrainConfig {
  int epochs = 30;
  float lr = 0.01f;
  int batch_size = 8;
  double clip_norm = 5.0;
  /// Early stopping patience in epochs of no validation improvement;
  /// <= 0 disables early stopping.
  int patience = 10;
  uint64_t seed = 17;
  bool verbose = false;
  /// When non-empty, the trainer writes one JSON object per epoch to this
  /// path (JSONL): loss, validation metric, pre-clip grad norm, phase
  /// wall times, and kernel/dispatch/cache counter deltas. Independent of
  /// `verbose` (which controls the console line). See
  /// docs/OBSERVABILITY.md.
  std::string log_path;
  /// Matching/similarity only: train on the final (coarsest) level's
  /// distance alone instead of the hierarchical multi-level loss of
  /// Sec. 4.5 — the "hierarchical vs final-only" ablation of DESIGN.md.
  bool final_level_only = false;
  /// Data-parallel worker count for mini-batch training. 0 (the default)
  /// keeps the legacy single-threaded loop, bit-identical to earlier
  /// releases. Any value >= 1 switches to the deterministic data-parallel
  /// runner (see docs/THREADING.md): the training trajectory is then
  /// bit-identical for EVERY num_threads >= 1 given the same seed, so
  /// `1` is the single-threaded reference of the parallel semantics and
  /// larger values only change wall-clock time. Values above 1 require a
  /// replica factory (see TrainClassifier / TrainMatcher /
  /// TrainSimilarity overloads).
  int num_threads = 0;
};

/// Graph classifier: any GraphEmbedder followed by the paper's two
/// fully-connected prediction layers (Eq. 20) and softmax cross-entropy
/// (Eq. 21). In line with the hierarchical prediction strategy
/// (Sec. 4.5.2, "fully utilize the hierarchical intermediate features of
/// coarsened graphs"), the head consumes the concatenation of every
/// level's graph embedding (for flat embedders that is just the single
/// final embedding).
class GraphClassifier : public Module {
 public:
  GraphClassifier(std::unique_ptr<GraphEmbedder> embedder, int num_classes,
                  int head_hidden, Rng* rng);

  /// Unnormalised class scores, (1, num_classes).
  Tensor Logits(const PreparedGraph& graph) const;

  /// Arg-max prediction (no autograd).
  int Predict(const PreparedGraph& graph) const;

  /// Cross-entropy loss of one example.
  Tensor Loss(const PreparedGraph& graph) const;

  /// True when the underlying embedder supports the batched mirror path
  /// (docs/BATCHING.md); the batched entry points below require it.
  bool SupportsBatched() const { return embedder_->SupportsBatched(); }

  /// Eval-only batched logits over N concatenated graphs: (N_graphs,
  /// num_classes), row g bit-equal to Logits on graph g alone in fp32.
  /// Same eval-mode and NoGradGuard contract as
  /// GraphEmbedder::EmbedLevelsBatched.
  Tensor LogitsBatched(const BatchedGraph& batch) const;

  /// Arg-max predictions for every graph in the batch (no autograd).
  std::vector<int> PredictBatched(const BatchedGraph& batch) const;

  void CollectParameters(std::vector<Tensor>* out) const override;
  void set_training(bool training) { embedder_->set_training(training); }
  /// Passthrough to the embedder's coarsening-mode switch (docs/SPARSE.md).
  void set_coarsen_mode(CoarsenMode mode, int topk = 0) {
    embedder_->set_coarsen_mode(mode, topk);
  }
  void ReseedNoise(uint64_t seed) override { embedder_->ReseedNoise(seed); }
  const GraphEmbedder& embedder() const { return *embedder_; }

  /// Final graph embedding (eval mode; for t-SNE visualisation).
  Tensor Embed(const PreparedGraph& graph) const;

 private:
  std::unique_ptr<GraphEmbedder> embedder_;
  Linear head1_;
  Linear head2_;
};

/// Outcome of a classification training run.
struct ClassificationResult {
  double train_accuracy = 0.0;
  double val_accuracy = 0.0;
  double test_accuracy = 0.0;
  int best_epoch = 0;
  /// Mean training loss per epoch, in epoch order — the reproducibility
  /// tests compare these trajectories across thread counts.
  std::vector<double> epoch_losses;
};

/// Accuracy of `model` over the given examples (eval mode).
double EvaluateClassifier(const GraphClassifier& model,
                          const std::vector<PreparedGraph>& data,
                          const std::vector<int>& indices);

/// Builds one fresh replica of the classifier being trained (identical
/// architecture; weights are overwritten by the trainer's per-batch sync,
/// so the factory's own initialisation does not matter).
using ClassifierFactory = std::function<std::unique_ptr<GraphClassifier>()>;

/// Trains with Adam + minibatch gradient accumulation; keeps the test
/// accuracy at the best-validation epoch (the paper's protocol).
ClassificationResult TrainClassifier(GraphClassifier* model,
                                     const std::vector<PreparedGraph>& data,
                                     const Split& split,
                                     const TrainConfig& config);

/// Data-parallel variant: when config.num_threads > 1, `replica_factory`
/// supplies the extra model replicas the worker threads train on (the
/// master model itself serves as replica 0). Identical results to
/// num_threads = 1 for the same seed — see docs/THREADING.md.
ClassificationResult TrainClassifier(GraphClassifier* model,
                                     const std::vector<PreparedGraph>& data,
                                     const Split& split,
                                     const TrainConfig& config,
                                     const ClassifierFactory& replica_factory);

}  // namespace hap

#endif  // HAP_TRAIN_CLASSIFIER_H_
