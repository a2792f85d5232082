#ifndef HAP_SERVE_ENGINE_H_
#define HAP_SERVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "serve/registry.h"
#include "serve/request_queue.h"
#include "serve/served_model.h"
#include "tensor/arena.h"

namespace hap::serve {

/// Micro-batching knobs. Defaults favour throughput on bursty traffic
/// while keeping the added latency bounded by max_delay_us.
struct EngineConfig {
  /// Largest micro-batch handed to the compute stage. Also the natural
  /// lane count for ServedModelConfig::lanes — with lanes >= max_batch a
  /// whole batch fans out across the thread pool in one wave.
  int max_batch = 16;
  /// How long the batcher waits for stragglers after the first request of
  /// a batch before dispatching it anyway.
  int64_t max_delay_us = 200;
  /// Admission bound: Submit fails with ResourceExhausted beyond this
  /// (backpressure instead of unbounded memory growth).
  size_t queue_capacity = 1024;
  /// Run each lane's share of the DISTINCT graphs in a micro-batch as one
  /// batched forward (segment ops, docs/BATCHING.md) instead of one
  /// forward per graph. Predictions are bit-identical either way (the
  /// batched-parity contract); models whose architecture has no batched
  /// mirror silently fall back to per-graph forwards.
  bool batch_distinct = true;
  /// Non-empty: append one JSON line per completed request (id, stage
  /// timestamps, latency, batch size, prediction — the RequestExemplar
  /// fields) to this path. Opening the access log turns on per-request
  /// stage stamping for every batch; leave empty (the default) to keep
  /// the disabled-mode cost at one relaxed load per gate.
  std::string access_log_path;
  /// Default per-request deadline budget applied by Submit/SubmitAsync
  /// when the caller passes none (0 = requests without an explicit
  /// deadline carry no deadline). Deadlines cap how long the batcher
  /// waits for stragglers (the batch seals early rather than guarantee a
  /// miss). A request whose deadline has already passed when its batch is
  /// dispatched is shed with DEADLINE_EXCEEDED before any compute
  /// (serve.deadline_miss.skipped); one that expires mid-compute still
  /// resolves with its prediction and ticks serve.deadline_miss.total.
  int64_t default_deadline_us = 0;
};

/// Inference front end: admission control, micro-batching, and fan-out of
/// batches across the global ThreadPool.
///
/// Requests enter through Submit (any thread), which validates the graph
/// against the current model and either enqueues it — returning a future
/// for the predicted class — or fails fast with a Status (bad input,
/// backpressure, engine shut down). A single batcher thread gathers
/// micro-batches (RequestQueue), coalesces requests that carry the same
/// prepared graph into one forward whose result fans back out to every
/// requester, and runs the unique forwards on distinct model lanes in
/// parallel. Each lane forward runs at the precision the resolved model
/// was loaded at (ServedModelConfig::precision), with that lane's
/// pre-quantized scales.
///
/// Hot-swap: an engine built over a ModelRegistry re-resolves its model
/// for every batch, so a Publish/Reload takes effect on the next batch
/// while batches already in flight finish on the model they started with.
class InferenceEngine {
 public:
  /// Serves a fixed model.
  InferenceEngine(std::shared_ptr<const ServedModel> model,
                  const EngineConfig& config);
  /// Serves `model_name` out of `registry` (latest version at each
  /// batch). `registry` must outlive the engine.
  InferenceEngine(const ModelRegistry* registry, std::string model_name,
                  const EngineConfig& config);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Validates and enqueues one graph; the future resolves to the
  /// predicted class once its micro-batch completes. Fails with
  /// InvalidArgument (malformed graph), ResourceExhausted (queue full —
  /// retry later), FailedPrecondition (shut down), or NotFound (model
  /// missing from the registry). `deadline_ns` is an absolute
  /// obs::MonotonicNs deadline (0 = apply the config default).
  StatusOr<std::future<int>> Submit(const PreparedGraph& graph,
                                    uint64_t deadline_ns = 0);

  /// Completion-callback variant for event-loop callers (the network
  /// server) that must never block on a future. On an OK return, `done`
  /// is invoked exactly once — with the prediction, or with the Status
  /// of a mid-flight failure (model removed, forward threw) — from the
  /// batcher thread, including during the Shutdown drain; a non-OK
  /// return means the request was never admitted and `done` will not be
  /// called. `done` must be quick and must not re-enter the engine.
  Status SubmitAsync(const PreparedGraph& graph, uint64_t deadline_ns,
                     std::function<void(StatusOr<int>)> done);

  /// Stops admissions, drains every queued request, and joins the
  /// batcher. Idempotent and safe to race from several threads; also
  /// runs on destruction.
  void Shutdown();

  /// Requests currently queued (admission-control signal; momentarily
  /// stale by construction).
  size_t queue_depth() const { return queue_.size(); }

  const EngineConfig& config() const { return config_; }

 private:
  StatusOr<std::shared_ptr<const ServedModel>> CurrentModel() const;
  /// Shared admission path: validates, stamps id/enqueue/deadline, and
  /// pushes. On OK the request is owned by the queue.
  Status Admit(const PreparedGraph& graph, uint64_t deadline_ns,
               Request request);
  void BatchLoop();
  void ProcessBatch(std::vector<Request> batch);
  void InitTelemetry();

  const EngineConfig config_;
  const ModelRegistry* registry_ = nullptr;  // nullptr => fixed model
  std::string model_name_;
  std::shared_ptr<const ServedModel> model_;  // fixed-model mode only
  RequestQueue queue_;
  std::thread batcher_;
  std::mutex shutdown_mu_;  // serialises concurrent Shutdown calls
  std::atomic<bool> shut_down_{false};
  // One arena per model lane: eval forwards on a lane cycle their tensor
  // buffers through the lane's pool, so steady-state serving performs no
  // heap allocation. Sized lazily by ProcessBatch (only the batcher
  // thread touches it) and grown if a hot-swap raises the lane count.
  std::vector<std::shared_ptr<TensorArena>> lane_arenas_;
  // Per-request JSONL access log (EngineConfig::access_log_path).
  // Written only by the batcher thread; closed by Shutdown.
  std::FILE* access_log_ = nullptr;
};

}  // namespace hap::serve

#endif  // HAP_SERVE_ENGINE_H_
