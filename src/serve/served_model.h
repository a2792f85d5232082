#ifndef HAP_SERVE_SERVED_MODEL_H_
#define HAP_SERVE_SERVED_MODEL_H_

#include <memory>
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
  /// Independent model replicas. Forwards mutate per-module scratch state
  /// (e.g. CoarseningModule's attention snapshot), so one replica must
  /// never run two forwards at once; distinct lanes are fully isolated.
  int lanes = 1;
  /// How hierarchical coarseners compute A' = MᵀAM (docs/SPARSE.md);
  /// applied to every lane at load time. The default keeps the
  /// bit-deterministic dense product.
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

/// An immutable, eval-mode model loaded from a checkpoint. Instances are
/// shared (shared_ptr<const ServedModel>) between the registry and every
/// in-flight batch, so a hot-swap never destroys a model that a batch is
/// still using.
class ServedModel {
 public:
  /// Builds the architecture described by `config` and loads `checkpoint`
  /// into every lane. Fails (without partial effects) on unknown method
  /// names, unreadable files, and corrupt or mismatched checkpoints.
  static StatusOr<std::shared_ptr<const ServedModel>> Load(
      const ServedModelConfig& config, const std::string& checkpoint_path);

  /// Checks that `graph` is something the model can run: features and a
  /// level both defined, at least one node, the level's node count equal
  /// to the feature rows, and the feature width the architecture expects.
  /// The engine rejects invalid graphs here so a malformed request gets an
  /// InvalidArgument instead of tripping a CHECK inside the kernels.
  Status ValidateRequest(const PreparedGraph& graph) const;

  /// Arg-max class prediction on lane `lane` (0 <= lane < lanes()).
  /// Deterministic: eval mode disables Gumbel noise, so the result is
  /// independent of lane and thread count. The caller must serialise
  /// calls on the same lane; distinct lanes are independent.
  int Predict(const PreparedGraph& graph, int lane) const;

  /// Predictions for a micro-batch of distinct graphs on lane `lane`: one
  /// batched forward (docs/BATCHING.md) when the architecture has a
  /// batched mirror, else one Predict per graph. In fp32 the result is
  /// bit-identical to calling Predict on each graph alone; under int8 a
  /// fused GEMM may take the int8 kernel for the batch's total rows, so
  /// predictions can depend on batch composition. Counts
  /// serve.batched_forwards.total when the batched forward ran. The same
  /// per-lane serialisation rule as Predict applies.
  std::vector<int> PredictBatched(const std::vector<PreparedGraph>& graphs,
                                  int lane) const;

  int lanes() const { return static_cast<int>(replicas_.size()); }
  const ServedModelConfig& config() const { return config_; }
  int64_t num_parameters() const { return num_parameters_; }

  /// The precision this model was prepared for at load time.
  Precision precision() const { return config_.precision; }
  /// Pre-quantized weight panels for lane `lane`, or nullptr when the
  /// model was prepared at fp32 (no scales needed). Callers install
  /// these via PrecisionScope on the thread running the lane forward.
  const QuantScales* lane_scales(int lane) const;
  /// The index-keyed scale entries backing lane_scales (for inspection
  /// and re-serialization; empty unless precision == int8).
  const std::vector<QuantScaleEntry>& scale_entries() const {
    return scale_entries_;
  }

 private:
  explicit ServedModel(ServedModelConfig config) : config_(std::move(config)) {}

  ServedModelConfig config_;
  std::vector<std::unique_ptr<GraphClassifier>> replicas_;
  /// One QuantScales per replica (same order), built from scale_entries_;
  /// empty unless config_.precision == int8. Replicas hold distinct
  /// weight tensors, so each lane binds the entries to its own pointers.
  std::vector<QuantScales> lane_scales_;
  std::vector<QuantScaleEntry> scale_entries_;
  int64_t num_parameters_ = 0;
};

}  // namespace hap::serve

#endif  // HAP_SERVE_SERVED_MODEL_H_
