#include "serve/served_model.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/serialize.h"
#include "train/model_zoo.h"

namespace hap::serve {

StatusOr<std::shared_ptr<const ServedModel>> ServedModel::Load(
    const ServedModelConfig& config, const std::string& checkpoint_path) {
  HAP_TRACE_SCOPE("serve.model.load");
  if (!IsKnownMethod(config.method)) {
    return Status::InvalidArgument("unknown method '" + config.method + "'");
  }
  if (config.feature_dim <= 0 || config.hidden <= 0 ||
      config.num_classes <= 0 || config.lanes <= 0) {
    return Status::InvalidArgument(
        "feature_dim, hidden, num_classes and lanes must be positive");
  }
  auto model = std::shared_ptr<ServedModel>(new ServedModel(config));
  // The init seed is irrelevant: every weight is overwritten by the
  // checkpoint, which also verifies the architecture shape-by-shape and
  // hands over its v2 scale section (if any).
  Rng rng(1);
  model->classifier_ = std::make_unique<GraphClassifier>(
      MakeEmbedderByName(config.method, config.feature_dim, config.hidden,
                         &rng),
      config.num_classes, config.hidden, &rng);
  if (Status s = LoadModule(model->classifier_.get(), checkpoint_path,
                            &model->scale_entries_);
      !s.ok()) {
    return Status(s.code(), "loading '" + checkpoint_path + "' for method " +
                                config.method + ": " + s.message());
  }
  model->classifier_->set_training(false);
  model->classifier_->set_coarsen_mode(config.coarsen_mode, config.topk);
  if (config.precision == Precision::kInt8) {
    if (model->scale_entries_.empty() && !config.calibration_graphs.empty()) {
      // Checkpoint carries no scales: calibrate activation absmax on the
      // held-out sample. Predict runs under NoGradGuard, so the observer
      // sees exactly the eval-time activations at each weight GEMM.
      CalibrationObserver observer;
      for (const PreparedGraph& graph : config.calibration_graphs) {
        if (Status s = model->ValidateRequest(graph); !s.ok()) {
          return Status(s.code(), "calibration graph: " + s.message());
        }
        (void)model->classifier_->Predict(graph);
      }
      model->scale_entries_ =
          observer.Entries(model->classifier_->Parameters());
    }
    // Pre-quantize the weight panels once, at load time. With no entries
    // at all (no checkpoint scales, no calibration sample) the table stays
    // empty and every GEMM quantizes dynamically.
    model->scales_ = QuantScales::Build(model->scale_entries_,
                                        model->classifier_->Parameters());
  }
  return std::shared_ptr<const ServedModel>(std::move(model));
}

Status ServedModel::ValidateRequest(const PreparedGraph& graph) const {
  // The level is what the model runs, dense-backed or sparse-native
  // (docs/SPARSE.md); GraphLevel itself guarantees a square adjacency.
  if (!graph.h.defined() || !graph.level.defined()) {
    return Status::InvalidArgument(
        "request graph has undefined features or level");
  }
  if (graph.h.rows() < 1) {
    return Status::InvalidArgument("request graph has no nodes");
  }
  if (graph.level.num_nodes() != graph.h.rows()) {
    return Status::InvalidArgument(
        "request level has " + std::to_string(graph.level.num_nodes()) +
        " nodes but the features have " + std::to_string(graph.h.rows()) +
        " rows");
  }
  if (graph.h.cols() != config_.feature_dim) {
    return Status::InvalidArgument(
        "request feature width " + std::to_string(graph.h.cols()) +
        " does not match model feature_dim " +
        std::to_string(config_.feature_dim));
  }
  return Status::Ok();
}

int ServedModel::Predict(const PreparedGraph& graph, int lane) const {
  HAP_CHECK_GE(lane, 0);
  HAP_CHECK_LT(lane, lanes());
  return classifier_->Predict(graph);
}

std::vector<int> ServedModel::PredictBatched(
    const std::vector<PreparedGraph>& graphs, int lane) const {
  HAP_CHECK_GE(lane, 0);
  HAP_CHECK_LT(lane, lanes());
  HAP_CHECK(!graphs.empty());
  if (!classifier_->SupportsBatched()) {
    // No batched mirror (attention readouts, baseline coarseners): run
    // the chunk graph by graph.
    std::vector<int> predictions;
    predictions.reserve(graphs.size());
    for (const PreparedGraph& graph : graphs) {
      predictions.push_back(classifier_->Predict(graph));
    }
    return predictions;
  }
  static obs::Counter* batched_forwards =
      obs::GetCounter(obs::names::kServeBatchedForwards);
  batched_forwards->Increment();
  std::vector<Tensor> features;
  std::vector<GraphLevel> levels;
  features.reserve(graphs.size());
  levels.reserve(graphs.size());
  for (const PreparedGraph& graph : graphs) {
    features.push_back(graph.h);
    levels.push_back(graph.level);
  }
  return classifier_->PredictBatched(BatchGraphs(features, levels));
}

}  // namespace hap::serve
