#ifndef HAP_SERVE_SERVED_MODEL_H_
#define HAP_SERVE_SERVED_MODEL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/quant.h"
#include "train/classifier.h"
#include "train/prepared.h"

namespace hap::serve {

/// Architecture of a model being served. A checkpoint stores only weights
/// (shapes are verified on load), so the serving side re-states the
/// architecture it expects; a mismatched checkpoint fails cleanly.
struct ServedModelConfig {
  std::string method = "HAP";  // a Table-3 method name (model_zoo.h)
  int feature_dim = 0;
  int hidden = 32;
  int num_classes = 2;
  /// Concurrency cap: the InferenceEngine runs at most this many forwards
  /// of one batch at once. Every lane runs the one loaded model, whose
  /// eval forwards write no module state, so lanes cost no memory.
  int lanes = 1;
  /// How hierarchical coarseners compute A' = MᵀAM (docs/SPARSE.md);
  /// applied at load time. The default keeps the bit-deterministic dense
  /// product.
  CoarsenMode coarsen_mode = CoarsenMode::kDense;
  /// Per-row assignment budget for the top-k sparse path; <= 0 keeps the
  /// model's configured default.
  int topk = 0;
  /// Eval-only forward precision (tensor/quant.h). int8 needs activation
  /// scales: they come from the checkpoint's v2 scale section when
  /// present, else are calibrated on `calibration_graphs`, else every
  /// activation quantizes dynamically. The InferenceEngine runs each
  /// batch at the precision of the model it resolved for that batch;
  /// Predict and PredictBatched called directly run at the caller's
  /// PrecisionScope (fp32 when none).
  Precision precision = Precision::kFp32;
  /// Held-out sample for absmax calibration (see above). Only read at
  /// Load, only when precision == int8 and the checkpoint carries no
  /// scales.
  std::vector<PreparedGraph> calibration_graphs;
};

/// An immutable, eval-mode model loaded from a checkpoint: one set of
/// weights, read by any number of threads at once. Instances are shared
/// (shared_ptr<const ServedModel>) between the registry and every
/// in-flight batch, so a hot-swap never destroys a model that a batch is
/// still using.
class ServedModel {
 public:
  /// Builds the architecture described by `config` and loads `checkpoint`
  /// into it. Fails (without partial effects) on unknown method names,
  /// unreadable files, and corrupt or mismatched checkpoints.
  static StatusOr<std::shared_ptr<const ServedModel>> Load(
      const ServedModelConfig& config, const std::string& checkpoint_path);

  /// Checks that `graph` is something the model can run: features and a
  /// level both defined, at least one node, the level's node count equal
  /// to the feature rows, and the feature width the architecture expects.
  /// The engine rejects invalid graphs here so a malformed request gets an
  /// InvalidArgument instead of tripping a CHECK inside the kernels.
  Status ValidateRequest(const PreparedGraph& graph) const;

  /// Arg-max class prediction. `lane` (0 <= lane < lanes()) names the
  /// caller's concurrency slot and is range-checked only: every lane runs
  /// the same weights. Deterministic: eval mode disables Gumbel noise, so
  /// the result is independent of lane and thread count. Safe to call
  /// from any number of threads at once.
  int Predict(const PreparedGraph& graph, int lane) const;

  /// Predictions for a micro-batch of distinct graphs: one batched forward
  /// (docs/BATCHING.md) when the architecture has a batched mirror, else
  /// one Predict per graph. In fp32 the result is bit-identical to calling
  /// Predict on each graph alone; under int8 a fused GEMM may take the
  /// int8 kernel for the batch's total rows, so predictions can depend on
  /// batch composition. Counts serve.batched_forwards.total when the
  /// batched forward ran. `lane` and thread safety as for Predict.
  std::vector<int> PredictBatched(const std::vector<PreparedGraph>& graphs,
                                  int lane) const;

  int lanes() const { return config_.lanes; }
  const ServedModelConfig& config() const { return config_; }
  int64_t num_parameters() const { return classifier_->NumParameters(); }

  /// The precision this model was prepared for at load time.
  Precision precision() const { return config_.precision; }
  /// Pre-quantized weight panels, or nullptr when the model was prepared
  /// at fp32 (no scales needed). Callers install them via PrecisionScope
  /// on each thread that runs a forward.
  const QuantScales* scales() const {
    return scales_.has_value() ? &*scales_ : nullptr;
  }
  /// The index-keyed scale entries backing scales() (for inspection and
  /// re-serialization; empty unless precision == int8).
  const std::vector<QuantScaleEntry>& scale_entries() const {
    return scale_entries_;
  }

 private:
  explicit ServedModel(ServedModelConfig config) : config_(std::move(config)) {}

  ServedModelConfig config_;
  std::unique_ptr<GraphClassifier> classifier_;
  /// scale_entries_ bound to classifier_'s weights; set only when
  /// config_.precision == int8.
  std::optional<QuantScales> scales_;
  std::vector<QuantScaleEntry> scale_entries_;
};

}  // namespace hap::serve

#endif  // HAP_SERVE_SERVED_MODEL_H_
