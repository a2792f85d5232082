#include "train/train_loop.h"

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/run_logger.h"
#include "obs/trace.h"
#include "tensor/arena.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "train/classifier.h"
#include "train/parallel_batch.h"

namespace hap {

std::vector<double> RunTrainLoop(const TrainConfig& config, TrainTask task) {
  HAP_CHECK(!task.replicas.empty());
  HAP_CHECK_GE(config.batch_size, 1);
  Module& model = *task.replicas.front();
  Rng rng(config.seed);
  Adam optimizer(model.Parameters(), config.lr);

  // Data-parallel state (num_threads >= 1). Per-batch noise seeds are
  // drawn from a dedicated stream on this thread so the schedule never
  // depends on worker interleaving.
  std::unique_ptr<ParallelBatchRunner> runner;
  Rng noise_seeds(config.seed * 0x9e3779b97f4a7c15ull + 0x51ab5eedull);
  if (config.num_threads >= 1) {
    std::vector<std::vector<Tensor>> replica_params;
    replica_params.reserve(task.replicas.size());
    for (Module* m : task.replicas) replica_params.push_back(m->Parameters());
    runner = std::make_unique<ParallelBatchRunner>(model.Parameters(),
                                                   std::move(replica_params));
  }
  const auto reseed = [&task](int worker, uint64_t seed) {
    task.replicas[worker]->ReseedNoise(seed);
  };
  // Scale so accumulated batch gradients are means, not sums (keeps the
  // effective step size independent of batch_size).
  const float loss_scale = 1.0f / config.batch_size;

  // Telemetry: the console sink prints one line per epoch when `verbose`
  // is set; a JSONL sink is opened when config.log_path is set. Timers and
  // counter deltas never feed back into the math, so trajectories are
  // identical with logging on or off.
  obs::RunLogger logger(config.verbose, config.log_path);
  obs::RunCounters counters_prev = obs::ReadRunCounters();

  // Step-scoped tensor memory (docs/PERFORMANCE.md): buffers for the
  // tape, eval forwards, and gradients allocated on this thread cycle
  // through this pool (worker threads use the runner's per-worker
  // arenas), so steady-state steps are allocation-free after warm-up.
  auto arena = std::make_shared<TensorArena>();
  ArenaScope arena_scope(arena);

  std::vector<int> order = std::move(task.items);
  std::vector<int> drawn(std::max(task.draws_per_epoch, 0));
  std::vector<double> epoch_losses;
  double best_score = -1.0;
  int epochs_since_best = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    HAP_TRACE_SCOPE("train.epoch");
    const uint64_t epoch_start_ns = obs::MonotonicNs();
    if (task.set_training) task.set_training(true);
    if (drawn.empty()) {
      rng.Shuffle(&order);
    } else {
      for (int& item : drawn) {
        item = order[rng.UniformInt(static_cast<int>(order.size()))];
      }
    }
    const std::vector<int>& items = drawn.empty() ? order : drawn;
    double epoch_loss = 0.0;
    double grad_norm_sum = 0.0;
    int optimizer_steps = 0;
    {
      HAP_TRACE_SCOPE("epoch.train");
      for (size_t start = 0; start < items.size();
           start += static_cast<size_t>(config.batch_size)) {
        const size_t stop = std::min(
            items.size(), start + static_cast<size_t>(config.batch_size));
        if (runner == nullptr) {
          for (size_t i = start; i < stop; ++i) {
            Tensor loss = task.loss(0, items[i]);
            epoch_loss += loss.Item();
            MulScalar(loss, loss_scale).Backward();
          }
        } else {
          const std::vector<int> batch(items.begin() + start,
                                       items.begin() + stop);
          epoch_loss += runner->RunBatch(batch, noise_seeds.NextU64(),
                                         loss_scale, reseed, task.loss);
        }
        grad_norm_sum += optimizer.ClipGradNorm(config.clip_norm);
        ++optimizer_steps;
        optimizer.Step();
        arena->ResetStep();
        if (runner != nullptr) runner->ResetStep();
      }
    }
    const uint64_t train_end_ns = obs::MonotonicNs();
    const double mean_loss = epoch_loss / std::max<size_t>(items.size(), 1);
    epoch_losses.push_back(mean_loss);
    if (task.set_training) task.set_training(false);
    double score = 0.0;
    bool stop = false;
    {
      HAP_TRACE_SCOPE("epoch.eval");
      score = task.evaluate();
      if (score > best_score) {
        best_score = score;
        epochs_since_best = 0;
        task.on_best(epoch, score);
      } else if (task.early_stopping && config.patience > 0 &&
                 ++epochs_since_best >= config.patience) {
        stop = true;
      }
    }
    if (logger.enabled()) {
      const uint64_t end_ns = obs::MonotonicNs();
      const obs::RunCounters counters_now = obs::ReadRunCounters();
      const obs::RunCounters delta = counters_now.DeltaSince(counters_prev);
      counters_prev = counters_now;
      obs::JsonRecord record;
      record.Add("task", task.name)
          .Add("epoch", epoch)
          .Add("train_loss", mean_loss)
          .Add(task.metric_key, score)
          .Add("grad_norm",
               optimizer_steps > 0 ? grad_norm_sum / optimizer_steps : 0.0)
          .Add("train_s", (train_end_ns - epoch_start_ns) / 1e9)
          .Add("eval_s", (end_ns - train_end_ns) / 1e9)
          .Add("epoch_s", (end_ns - epoch_start_ns) / 1e9)
          .Add("matmul_calls", delta.matmul_calls)
          .Add("spmatmul_calls", delta.spmatmul_calls)
          .Add("dispatch_dense", delta.dispatch_dense)
          .Add("dispatch_sparse", delta.dispatch_sparse)
          .Add("cache_hits", delta.cache_hits)
          .Add("cache_misses", delta.cache_misses);
      char line[128];
      std::snprintf(line, sizeof(line), "epoch %d loss %.4f %s %.4f", epoch,
                    mean_loss, task.metric_label, score);
      logger.Log(record, line);
    }
    if (stop) break;
  }
  return epoch_losses;
}

}  // namespace hap
