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
  for (int lane = 0; lane < config.lanes; ++lane) {
    // The init seed is irrelevant: every weight is overwritten by the
    // checkpoint, which also verifies the architecture shape-by-shape.
    Rng rng(1);
    auto replica = std::make_unique<GraphClassifier>(
        MakeEmbedderByName(config.method, config.feature_dim, config.hidden,
                           &rng),
        config.num_classes, config.hidden, &rng);
    // Lane 0 also captures the checkpoint's v2 scale section (if any);
    // the entries are index-keyed, so one read serves every lane.
    std::vector<QuantScaleEntry>* scales_out =
        lane == 0 ? &model->scale_entries_ : nullptr;
    if (Status s = LoadModule(replica.get(), checkpoint_path, scales_out);
        !s.ok()) {
      return Status(s.code(), "loading '" + checkpoint_path +
                                  "' for method " + config.method + ": " +
                                  s.message());
    }
    replica->set_training(false);
    replica->set_coarsen_mode(config.coarsen_mode, config.topk);
    model->replicas_.push_back(std::move(replica));
  }
  model->num_parameters_ = model->replicas_[0]->NumParameters();
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
        (void)model->replicas_[0]->Predict(graph);
      }
      model->scale_entries_ =
          observer.Entries(model->replicas_[0]->Parameters());
    }
    // Pre-quantize every lane's weight panels once, at load time. With no
    // entries at all (no checkpoint scales, no calibration sample) the
    // per-lane tables stay empty and every GEMM quantizes dynamically.
    for (int lane = 0; lane < config.lanes; ++lane) {
      model->lane_scales_.push_back(QuantScales::Build(
          model->scale_entries_, model->replicas_[lane]->Parameters()));
    }
  }
  return std::shared_ptr<const ServedModel>(std::move(model));
}

const QuantScales* ServedModel::lane_scales(int lane) const {
  if (lane_scales_.empty()) return nullptr;
  HAP_CHECK_GE(lane, 0);
  HAP_CHECK_LT(lane, static_cast<int>(lane_scales_.size()));
  return &lane_scales_[lane];
}

Status ServedModel::ValidateRequest(const PreparedGraph& graph) const {
  // Sparse-native requests carry a CSR-backed level with no dense
  // adjacency tensor (docs/SPARSE.md); either representation is accepted
  // as long as its node count matches the feature rows.
  const bool has_dense = graph.adjacency.defined();
  const bool has_sparse = graph.level.defined() &&
                          !graph.level.has_dense_adjacency();
  if (!graph.h.defined() || (!has_dense && !has_sparse)) {
    return Status::InvalidArgument("request graph has undefined tensors");
  }
  if (graph.h.rows() < 1) {
    return Status::InvalidArgument("request graph has no nodes");
  }
  if (has_dense && (graph.adjacency.rows() != graph.adjacency.cols() ||
                    graph.adjacency.rows() != graph.h.rows())) {
    return Status::InvalidArgument(
        "request adjacency must be square and match the feature rows");
  }
  if (!has_dense && graph.level.num_nodes() != graph.h.rows()) {
    return Status::InvalidArgument(
        "request CSR adjacency must match the feature rows");
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
  return replicas_[lane]->Predict(graph);
}

std::vector<int> ServedModel::PredictBatched(
    const std::vector<PreparedGraph>& graphs, int lane) const {
  HAP_CHECK_GE(lane, 0);
  HAP_CHECK_LT(lane, lanes());
  HAP_CHECK(!graphs.empty());
  const GraphClassifier& replica = *replicas_[lane];
  if (!replica.SupportsBatched()) {
    // No batched mirror (attention readouts, baseline coarseners): run
    // the chunk graph by graph on this lane.
    std::vector<int> predictions;
    predictions.reserve(graphs.size());
    for (const PreparedGraph& graph : graphs) {
      predictions.push_back(replica.Predict(graph));
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
  return replica.PredictBatched(BatchGraphs(features, levels));
}

}  // namespace hap::serve
