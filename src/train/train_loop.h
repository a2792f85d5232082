#ifndef HAP_TRAIN_TRAIN_LOOP_H_
#define HAP_TRAIN_TRAIN_LOOP_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"
#include "tensor/module.h"
#include "tensor/tensor.h"

namespace hap {

struct TrainConfig;

/// What a trainer hands the shared epoch loop: its model replicas, its
/// objective and its evaluation. Classification (Eq. 20-21), matching
/// (Eq. 22-23), triplet similarity (Eq. 24) and SimGNN differ only here;
/// item order, optimizer steps, step-scoped memory, early stopping and the
/// run log belong to RunTrainLoop.
struct TrainTask {
  /// Run-log "task" value, e.g. "classification".
  const char* name = "";
  /// Run-log key and console label of the score `evaluate` returns.
  const char* metric_key = "";
  const char* metric_label = "";
  /// The model being trained first, then its data-parallel replicas. The
  /// serial loop (num_threads == 0) runs replica 0 only; the data-parallel
  /// loop runs worker w on replica w.
  std::vector<Module*> replicas;
  /// Puts every replica in training or eval mode; empty when the model
  /// has no such mode.
  std::function<void(bool training)> set_training;
  /// The training items the loss closures receive. Every epoch visits them
  /// in a fresh in-place shuffle of this order; with draws_per_epoch > 0
  /// an epoch is instead that many uniform draws, with replacement.
  std::vector<int> items;
  int draws_per_epoch = 0;
  /// Loss of one item on replica `worker`, a (1, 1) tensor.
  std::function<Tensor(int worker, int item)> loss;
  /// End-of-epoch score of replica 0 in eval mode; higher is better.
  std::function<double()> evaluate;
  /// Called at every epoch whose score beats all earlier ones.
  std::function<void(int epoch, double score)> on_best;
  /// Stop after TrainConfig::patience epochs without a better score.
  bool early_stopping = false;
};

/// Trains `task` with Adam and mini-batch gradient accumulation for
/// config.epochs epochs, evaluating after each, and returns the mean
/// training loss of every epoch run. num_threads == 0 accumulates one
/// tape per item on this thread, in item order; num_threads >= 1 hands
/// each batch to a ParallelBatchRunner over task.replicas, whose
/// trajectory is the same for every thread count (docs/THREADING.md).
/// The two differ in float association, so they are not bit-equal to
/// each other. With config.log_path or config.verbose set, every epoch
/// run, the stopping one included, writes one run-log record.
std::vector<double> RunTrainLoop(const TrainConfig& config, TrainTask task);

/// The replicas a data-parallel run of `model` trains on: `model` itself,
/// then num_threads - 1 more from `factory`, owned by `owned`.
template <typename Model>
std::vector<Model*> MakeReplicas(
    Model* model, int num_threads,
    const std::function<std::unique_ptr<Model>()>& factory,
    std::vector<std::unique_ptr<Model>>* owned) {
  std::vector<Model*> replicas = {model};
  for (int w = 1; w < num_threads; ++w) {
    HAP_CHECK(factory != nullptr)
        << "num_threads > 1 needs a replica factory";
    owned->push_back(factory());
    replicas.push_back(owned->back().get());
  }
  return replicas;
}

}  // namespace hap

#endif  // HAP_TRAIN_TRAIN_LOOP_H_
