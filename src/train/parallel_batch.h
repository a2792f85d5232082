#ifndef HAP_TRAIN_PARALLEL_BATCH_H_
#define HAP_TRAIN_PARALLEL_BATCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace hap {

/// Deterministic data-parallel gradient accumulation over one mini-batch.
///
/// The trainers hand this runner W model *replicas* (replica 0 is usually
/// the master model itself). Each batch example is processed end-to-end —
/// noise reseed, forward, scaled backward — on exactly one replica, with
/// contiguous slices of the batch sharded across replicas. The gradients an
/// example produced on its replica's parameters are captured into a
/// per-example buffer, and after the fork-join the buffers are reduced into
/// the master parameters' grads in batch order (example 0 first). Because
/// every example's computation depends only on the synced master weights,
/// its own inputs, and its position-derived noise seed — and the reduction
/// order is fixed — the accumulated gradient is bit-identical for any
/// replica count, which is what makes `num_threads=1` and `num_threads=8`
/// training trajectories indistinguishable.
class ParallelBatchRunner {
 public:
  /// `master_params`: the parameter list the optimizer steps on.
  /// `replica_params[w]`: parameter list of replica w, congruent with
  /// `master_params` (same order, same shapes). A replica list whose
  /// tensors alias the master's (replica 0 == master model) is detected
  /// and skipped during weight sync.
  ParallelBatchRunner(std::vector<Tensor> master_params,
                      std::vector<std::vector<Tensor>> replica_params);

  int num_workers() const { return static_cast<int>(replica_params_.size()); }

  /// Processes `batch` (indices into the caller's dataset): copies master
  /// weights into every replica, shards the batch across replicas, runs
  /// `reseed(worker, seed)` then `loss(worker, item)` per example, backprops
  /// `loss * loss_scale` on the replica, and reduces the per-example
  /// parameter gradients into the master grads in batch order. Returns the
  /// sum of the (unscaled) per-example losses, accumulated in batch order.
  ///
  /// `noise_seed_base` must be drawn once per batch on the calling thread;
  /// example i's reseed value is derived from (noise_seed_base, i).
  double RunBatch(const std::vector<int>& batch, uint64_t noise_seed_base,
                  float loss_scale,
                  const std::function<void(int worker, uint64_t seed)>& reseed,
                  const std::function<Tensor(int worker, int item)>& loss);

  /// Marks an optimizer-step boundary on every worker arena (metrics
  /// bookkeeping; pooled buffers are retained for the next batch).
  /// Trainers call this once per optimizer step.
  void ResetStep();

 private:
  void SyncReplicaWeights();

  std::vector<Tensor> master_params_;
  std::vector<std::vector<Tensor>> replica_params_;
  // One arena per worker: each replica's tape and gradient buffers cycle
  // through its own pool, so steady-state batches run allocation-free.
  // Harvested per-example grad buffers are returned to the arena of the
  // worker that produced them after the reduction (see RunBatch).
  std::vector<std::shared_ptr<TensorArena>> worker_arenas_;
};

}  // namespace hap

#endif  // HAP_TRAIN_PARALLEL_BATCH_H_
