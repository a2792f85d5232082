#ifndef HAP_COMMON_THREAD_POOL_H_
#define HAP_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hap {

/// Fixed-size thread pool with fork-join primitives.
///
/// A pool of width W owns W-1 background threads; the thread that submits a
/// job always participates in running it, so `ThreadPool(1)` degenerates to
/// fully serial execution with no threads at all. Jobs are claimed through an
/// atomic counter, which means a submission never deadlocks even when the
/// pool is narrower than the job count (the caller drains whatever the
/// workers do not pick up).
///
/// Determinism contract: Run/ParallelFor only decide *which thread* executes
/// a job, never how a job's own arithmetic is ordered. Kernels that write
/// disjoint outputs with a fixed per-output summation order therefore produce
/// bit-identical results at every pool width.
///
/// Calls from inside a pool task execute inline (serially) instead of
/// re-entering the queue, so nested ParallelFor cannot deadlock.
class ThreadPool {
 public:
  /// Creates a pool of total width `num_threads` (>= 1): the caller plus
  /// `num_threads - 1` background workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallel width (background workers + the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(0) ... fn(num_jobs - 1), distributing jobs across the pool.
  /// Each job index is executed exactly once. Blocks until every job has
  /// finished. The first exception thrown by any job is rethrown here (the
  /// remaining jobs still run to completion).
  void Run(int64_t num_jobs, const std::function<void(int64_t)>& fn);

  /// Splits [begin, end) into contiguous blocks of at least `grain`
  /// iterations and runs fn(block_begin, block_end) for each, in parallel.
  /// Serial when the range is small, the pool width is 1, or the caller is
  /// itself a pool task.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// True while the current thread is executing a pool task (used to run
  /// nested submissions inline).
  static bool InWorker();

 private:
  void WorkerLoop(int worker_index);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The process-wide pool used by the tensor kernels and trainers. Created on
/// first use with width `HAP_NUM_THREADS` (if set to a positive integer) or
/// std::thread::hardware_concurrency() otherwise.
ThreadPool& GlobalThreadPool();

/// Width of the global pool.
int NumThreads();

/// Replaces the global pool with one of width `num_threads` (>= 1). Not
/// safe to call while parallel work is in flight; intended for benchmarks
/// and tests that sweep thread counts.
void SetNumThreads(int num_threads);

/// Minimum scalar operations one parallel block must amortise. Work below
/// this runs serially (ParallelFor's small-range fast path), so tiny
/// tensors never pay scheduling overhead.
inline constexpr int64_t kParallelGrainWork = int64_t{1} << 15;

/// Rows per parallel block such that a block covers at least
/// kParallelGrainWork scalar operations, given `row_work` per row.
inline int64_t RowGrain(int64_t row_work) {
  return kParallelGrainWork / std::max<int64_t>(row_work, 1) + 1;
}

/// Convenience wrapper over GlobalThreadPool().ParallelFor.
inline void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t)>& fn) {
  GlobalThreadPool().ParallelFor(begin, end, grain, fn);
}

}  // namespace hap

#endif  // HAP_COMMON_THREAD_POOL_H_
