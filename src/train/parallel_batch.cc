#include "train/parallel_batch.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace hap {

ParallelBatchRunner::ParallelBatchRunner(
    std::vector<Tensor> master_params,
    std::vector<std::vector<Tensor>> replica_params)
    : master_params_(std::move(master_params)),
      replica_params_(std::move(replica_params)) {
  HAP_CHECK(!replica_params_.empty());
  for (const auto& params : replica_params_) {
    HAP_CHECK_EQ(params.size(), master_params_.size())
        << "replica parameter list does not match the master model";
    for (size_t p = 0; p < params.size(); ++p) {
      HAP_CHECK(params[p].rows() == master_params_[p].rows() &&
                params[p].cols() == master_params_[p].cols())
          << "replica parameter " << p << " has a different shape";
    }
  }
  worker_arenas_.reserve(replica_params_.size());
  for (size_t w = 0; w < replica_params_.size(); ++w) {
    worker_arenas_.push_back(std::make_shared<TensorArena>());
  }
}

void ParallelBatchRunner::ResetStep() {
  for (const auto& arena : worker_arenas_) arena->ResetStep();
}

void ParallelBatchRunner::SyncReplicaWeights() {
  for (auto& params : replica_params_) {
    for (size_t p = 0; p < params.size(); ++p) {
      if (params[p].impl_ptr() == master_params_[p].impl_ptr()) continue;
      std::copy(master_params_[p].values().begin(),
                master_params_[p].values().end(), params[p].mutable_data());
    }
  }
}

double ParallelBatchRunner::RunBatch(
    const std::vector<int>& batch, uint64_t noise_seed_base, float loss_scale,
    const std::function<void(int worker, uint64_t seed)>& reseed,
    const std::function<Tensor(int worker, int item)>& loss) {
  if (batch.empty()) return 0.0;
  HAP_TRACE_SCOPE("batch.run");
  static obs::Counter* batches = obs::GetCounter(obs::names::kTrainBatches);
  static obs::Counter* examples = obs::GetCounter(obs::names::kTrainExamples);
  batches->Increment();
  examples->Add(batch.size());
  {
    HAP_TRACE_SCOPE("batch.sync");
    SyncReplicaWeights();
  }

  const int workers = num_workers();
  const int64_t count = static_cast<int64_t>(batch.size());
  // item_grads[i][p]: gradient example i produced on parameter p (empty
  // when backward never reached that parameter). item_worker[i] records
  // which worker (arena) produced example i's buffers so they can be
  // returned to the right pool after the reduction.
  std::vector<std::vector<std::vector<float>>> item_grads(batch.size());
  std::vector<int> item_worker(batch.size(), 0);
  std::vector<double> item_losses(batch.size(), 0.0);

  // One job per replica; each job owns a contiguous slice of the batch so
  // no two threads ever touch the same replica or the same example. The
  // worker's arena scope makes every tape/grad buffer on this slice cycle
  // through the worker's pool instead of the heap.
  GlobalThreadPool().Run(workers, [&](int64_t w) {
    const int64_t lo = count * w / workers;
    const int64_t hi = count * (w + 1) / workers;
    const int worker = static_cast<int>(w);
    ArenaScope arena_scope(worker_arenas_[worker]);
    auto& params = replica_params_[worker];
    for (int64_t i = lo; i < hi; ++i) {
      item_worker[i] = worker;
      // The noise an example sees is a function of its batch position only,
      // mixed through splitmix so consecutive positions decorrelate.
      reseed(worker, Rng(noise_seed_base + static_cast<uint64_t>(i)).NextU64());
      Tensor example_loss = loss(worker, batch[i]);
      item_losses[i] = example_loss.Item();
      MulScalar(example_loss, loss_scale).Backward();
      auto& grads = item_grads[i];
      grads.resize(params.size());
      for (size_t p = 0; p < params.size(); ++p) {
        // Move the replica's grad buffer out (leaving it empty = zeroed for
        // the next example on this replica).
        grads[p] = std::move(params[p].impl().grad);
        params[p].impl().grad.clear();
      }
    }
  });

  {
    // Deterministic reduction: for every parameter, example contributions
    // are added in batch order. Parallel over parameters — the
    // per-parameter accumulation order is what fixes the floating-point
    // result, and that stays example 0, 1, 2, ... regardless of which
    // thread reduces it.
    //
    // Master grad buffers are ensured up front under worker 0's arena:
    // when replica 0 aliases the master model (the common layout), the job
    // above moved those buffers into item_grads, and drawing the
    // replacements from the pool they will be released back to keeps the
    // steady-state batch allocation-free.
    HAP_TRACE_SCOPE("batch.reduce");
    {
      ArenaScope arena_scope(worker_arenas_[0]);
      for (auto& param : master_params_) param.impl().EnsureGrad();
    }
    ParallelFor(0, static_cast<int64_t>(master_params_.size()), 1,
                [&](int64_t plo, int64_t phi) {
                  for (int64_t p = plo; p < phi; ++p) {
                    internal::TensorImpl& impl = master_params_[p].impl();
                    for (int64_t i = 0; i < count; ++i) {
                      const std::vector<float>& g = item_grads[i][p];
                      if (g.empty()) continue;
                      for (size_t x = 0; x < g.size(); ++x) {
                        impl.grad[x] += g[x];
                      }
                    }
                  }
                });

    // Return the harvested per-example buffers to the pools they came
    // from.
    for (int64_t i = 0; i < count; ++i) {
      TensorArena& arena = *worker_arenas_[item_worker[i]];
      for (std::vector<float>& g : item_grads[i]) {
        if (!g.empty()) arena.Release(std::move(g));
      }
    }
  }

  double total = 0.0;
  for (double item_loss : item_losses) total += item_loss;
  return total;
}

}  // namespace hap
