#include "serve/engine.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/telemetry.h"
#include "tensor/quant.h"

namespace hap::serve {

namespace {

// Per-process request id sequence (ids are minted in Submit and thread a
// request through queue → batcher → lane as one trace flow). Shared
// across engines so two engines in one process never collide on a flow
// id; starts at 1 so id 0 means "never admitted".
std::atomic<uint64_t> g_next_request_id{1};

/// Identity of a request's graph for coalescing. PreparedGraph tensors
/// are shared handles, so two requests carrying the same prepared graph
/// alias the same storage — pointer equality is exact, with no risk of
/// collapsing merely similar graphs.
using GraphKey = std::pair<const float*, const float*>;

GraphKey KeyOf(const PreparedGraph& graph) {
  return {graph.h.data(), graph.adjacency.data()};
}

}  // namespace

InferenceEngine::InferenceEngine(std::shared_ptr<const ServedModel> model,
                                 const EngineConfig& config)
    : config_(config),
      model_(std::move(model)),
      queue_(config.queue_capacity) {
  HAP_CHECK(model_ != nullptr);
  HAP_CHECK_GE(config_.max_batch, 1);
  InitTelemetry();
  batcher_ = std::thread([this] { BatchLoop(); });
}

InferenceEngine::InferenceEngine(const ModelRegistry* registry,
                                 std::string model_name,
                                 const EngineConfig& config)
    : config_(config),
      registry_(registry),
      model_name_(std::move(model_name)),
      queue_(config.queue_capacity) {
  HAP_CHECK(registry_ != nullptr);
  HAP_CHECK_GE(config_.max_batch, 1);
  InitTelemetry();
  batcher_ = std::thread([this] { BatchLoop(); });
}

void InferenceEngine::InitTelemetry() {
  // Exemplars ride every exporter scrape once a serve stack exists.
  RegisterExemplarScrapeSection();
  if (!config_.access_log_path.empty()) {
    access_log_ = std::fopen(config_.access_log_path.c_str(), "w");
    if (access_log_ == nullptr) {
      std::fprintf(stderr, "serve: cannot open access log '%s'; disabled\n",
                   config_.access_log_path.c_str());
    }
  }
}

InferenceEngine::~InferenceEngine() { Shutdown(); }

void InferenceEngine::Shutdown() {
  // exchange + mutex: the first caller does the work, later (possibly
  // concurrent) callers wait for it to finish instead of racing the join.
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  queue_.Close();
  if (batcher_.joinable()) batcher_.join();
  if (access_log_ != nullptr) {
    std::fclose(access_log_);
    access_log_ = nullptr;
  }
}

StatusOr<std::shared_ptr<const ServedModel>> InferenceEngine::CurrentModel()
    const {
  if (registry_ == nullptr) return model_;
  return registry_->Get(model_name_);
}

Status InferenceEngine::Admit(const PreparedGraph& graph,
                              uint64_t deadline_ns, Request request) {
  static obs::Counter* requests =
      obs::GetCounter(obs::names::kServeRequests);
  static obs::Counter* rejected =
      obs::GetCounter(obs::names::kServeRejected);
  StatusOr<std::shared_ptr<const ServedModel>> model = CurrentModel();
  if (!model.ok()) {
    rejected->Increment();
    return model.status();
  }
  if (Status s = model.value()->ValidateRequest(graph); !s.ok()) {
    rejected->Increment();
    return s;
  }
  request.graph = graph;
  request.id = g_next_request_id.fetch_add(1, std::memory_order_relaxed);
  request.enqueue_ns = obs::MonotonicNs();
  if (deadline_ns != 0) {
    request.deadline_ns = deadline_ns;
  } else if (config_.default_deadline_us > 0) {
    request.deadline_ns =
        request.enqueue_ns +
        static_cast<uint64_t>(config_.default_deadline_us) * 1000;
  }
  if (obs::TracingEnabled()) {
    // Admission span on the producer's track; the flow start inside it
    // is what the batcher's 't' and the lane's 'f' chain back to.
    HAP_TRACE_SCOPE("serve.submit");
    obs::TraceFlow("serve.request", 's', request.id);
  }
  if (Status s = queue_.Push(std::move(request)); !s.ok()) {
    rejected->Increment();
    return s;
  }
  requests->Increment();
  return Status::Ok();
}

StatusOr<std::future<int>> InferenceEngine::Submit(const PreparedGraph& graph,
                                                   uint64_t deadline_ns) {
  Request request;
  std::future<int> result = request.promise.get_future();
  if (Status s = Admit(graph, deadline_ns, std::move(request)); !s.ok()) {
    return s;
  }
  return result;
}

Status InferenceEngine::SubmitAsync(const PreparedGraph& graph,
                                    uint64_t deadline_ns,
                                    std::function<void(StatusOr<int>)> done) {
  HAP_CHECK(done != nullptr);
  Request request;
  request.callback = std::move(done);
  return Admit(graph, deadline_ns, std::move(request));
}

void InferenceEngine::BatchLoop() {
  obs::SetCurrentThreadName("serve-batcher");
  while (true) {
    std::vector<Request> batch =
        queue_.PopBatch(config_.max_batch, config_.max_delay_us);
    if (batch.empty()) return;  // closed and drained
    ProcessBatch(std::move(batch));
  }
}

void InferenceEngine::ProcessBatch(std::vector<Request> batch) {
  HAP_TRACE_SCOPE("serve.batch");
  static obs::Counter* batches = obs::GetCounter(obs::names::kServeBatches);
  static obs::Counter* coalesced =
      obs::GetCounter(obs::names::kServeCoalesced);
  static obs::Histogram* batch_size =
      obs::GetHistogram(obs::names::kServeBatchSize);
  // Latency distributions are Sketches (tail-accurate quantiles,
  // docs/OBSERVABILITY.md); batch size stays a coarse Histogram.
  static obs::Sketch* queue_wait =
      obs::GetSketch(obs::names::kServeQueueWaitNs);
  static obs::Sketch* compute = obs::GetSketch(obs::names::kServeComputeNs);
  static obs::Sketch* stage_dispatch =
      obs::GetSketch(obs::names::kServeStageDispatchNs);
  static obs::Sketch* stage_forward =
      obs::GetSketch(obs::names::kServeStageForwardNs);
  static obs::Sketch* stage_resolve =
      obs::GetSketch(obs::names::kServeStageResolveNs);
  static obs::Sketch* latency = obs::GetSketch(obs::names::kServeLatencyNs);

  // One gate for the whole batch: stage stamps, flow events, exemplars,
  // and the access log all hang off it, so a run with everything off
  // pays two relaxed loads per batch and nothing per request.
  const bool tracing = obs::TracingEnabled();
  const bool metrics = obs::MetricsEnabled();
  const bool telemetry = metrics || tracing || access_log_ != nullptr;

  batches->Increment();
  batch_size->Record(batch.size());
  if (telemetry) {
    // Batch-seal stamp (queue exit): the same instant for every member
    // by construction — the batch is sealed as a unit.
    const uint64_t now = obs::MonotonicNs();
    for (Request& request : batch) {
      request.seal_ns = now;
      if (metrics) queue_wait->Record(now - request.enqueue_ns);
      // Flow step on the batcher track, inside the serve.batch span.
      if (tracing) obs::TraceFlow("serve.request", 't', request.id);
    }
  }

  // Shed requests whose deadline already expired while they waited in the
  // queue: they get DEADLINE_EXCEEDED now instead of occupying a lane to
  // compute an answer the client has given up on. Mid-compute expiry is
  // handled separately below (the prediction still resolves).
  {
    bool any_expirable = false;
    for (const Request& request : batch) {
      if (request.deadline_ns != 0) any_expirable = true;
    }
    if (any_expirable) {
      static obs::Counter* skipped =
          obs::GetCounter(obs::names::kServeDeadlineSkipped);
      const uint64_t now = obs::MonotonicNs();
      std::vector<Request> live;
      live.reserve(batch.size());
      for (Request& request : batch) {
        if (request.deadline_ns != 0 && now >= request.deadline_ns) {
          skipped->Increment();
          const Status status = Status::DeadlineExceeded(
              "deadline expired before dispatch");
          if (request.callback) {
            request.callback(status);
          } else {
            request.promise.set_exception(std::make_exception_ptr(
                std::runtime_error(status.ToString())));
          }
        } else {
          live.push_back(std::move(request));
        }
      }
      batch = std::move(live);
      if (batch.empty()) return;
    }
  }

  // Group requests that carry the same prepared graph: one forward per
  // group, the result fanned back to every member. Predictions are
  // unchanged because eval-mode forwards are deterministic.
  std::vector<std::vector<Request>> groups;
  std::map<GraphKey, size_t> index;
  for (Request& request : batch) {
    auto [it, inserted] = index.emplace(KeyOf(request.graph), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(std::move(request));
  }
  coalesced->Add(batch.size() - groups.size());

  // Fails every waiter in the batch: future holders get `error`,
  // network-path callbacks get `status`. Either way nobody is left
  // unresolved — the no-broken-promise contract the Shutdown stress
  // test pins down.
  const auto fail_all = [&groups](const Status& status,
                                  const std::exception_ptr& error) {
    for (std::vector<Request>& group : groups) {
      for (Request& request : group) {
        if (request.callback) {
          request.callback(status);
        } else {
          request.promise.set_exception(error);
        }
      }
    }
  };

  StatusOr<std::shared_ptr<const ServedModel>> resolved = CurrentModel();
  if (!resolved.ok()) {
    // The model vanished between admission and dispatch (registry Remove
    // mid-flight). Fail the waiters rather than hanging them.
    fail_all(resolved.status(),
             std::make_exception_ptr(
                 std::runtime_error(resolved.status().ToString())));
    return;
  }
  const std::shared_ptr<const ServedModel>& model = resolved.value();

  // Split the unique graphs into one contiguous chunk per lane (lanes are
  // independent replicas; a lane never runs two forwards at once) and fan
  // the chunks across the pool.
  std::vector<int> predictions(groups.size(), -1);
  const int lanes = model->lanes();
  const size_t chunks = std::min(groups.size(), static_cast<size_t>(lanes));
  // Per-lane tensor pools: a lane runs at most one forward at a time, so
  // its arena is never contended. Buffers persist across batches; each
  // batch is an arena "step", allocation-free after the first.
  while (lane_arenas_.size() < static_cast<size_t>(lanes)) {
    lane_arenas_.push_back(std::make_shared<TensorArena>());
  }

  const uint64_t compute_start = metrics ? obs::MonotonicNs() : 0;
  try {
    HAP_TRACE_SCOPE("serve.batch.compute");
    GlobalThreadPool().Run(static_cast<int64_t>(chunks), [&](int64_t lane) {
      const size_t lo = groups.size() * static_cast<size_t>(lane) / chunks;
      const size_t hi =
          groups.size() * (static_cast<size_t>(lane) + 1) / chunks;
      HAP_TRACE_SCOPE("serve.lane.forward");
      if (tracing) {
        // Flow terminators inside the lane span, so the arrowhead binds
        // to the lane slice ("bp":"e").
        for (size_t g = lo; g < hi; ++g) {
          for (const Request& request : groups[g]) {
            obs::TraceFlow("serve.request", 'f', request.id);
          }
        }
      }
      const uint64_t start = telemetry ? obs::MonotonicNs() : 0;
      ArenaScope arena_scope(lane_arenas_[static_cast<size_t>(lane)]);
      // Precision is thread-local state, so the scope lives on the pool
      // thread running this lane's forward, not on the batcher.
      PrecisionScope precision_scope(
          model->precision(), model->lane_scales(static_cast<int>(lane)));
      std::vector<PreparedGraph> graphs;
      graphs.reserve(hi - lo);
      for (size_t g = lo; g < hi; ++g) {
        graphs.push_back(groups[g].front().graph);
      }
      std::vector<int> chunk_predictions =
          model->PredictBatched(graphs, static_cast<int>(lane));
      std::copy(chunk_predictions.begin(), chunk_predictions.end(),
                predictions.begin() + static_cast<int64_t>(lo));
      if (telemetry) {
        // Per-request attribution of lane time: every member of a chunk
        // reports the chunk's forward span.
        const uint64_t end = obs::MonotonicNs();
        for (size_t g = lo; g < hi; ++g) {
          for (Request& request : groups[g]) {
            request.forward_start_ns = start;
            request.forward_end_ns = end;
          }
        }
      }
    });
    for (int lane = 0; lane < lanes; ++lane) {
      lane_arenas_[static_cast<size_t>(lane)]->ResetStep();
    }
  } catch (...) {
    auto error = std::current_exception();
    std::string what = "batch forward failed";
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    fail_all(Status::Internal(what), error);
    return;
  }

  if (metrics) compute->Record(obs::MonotonicNs() - compute_start);

  // Resolve stamp: taken once before the fan-out so every member of the
  // batch reports the same boundary (set_value order is bookkeeping, not
  // a meaningful latency difference). Deadline accounting needs the
  // clock even with telemetry off.
  bool any_deadline = false;
  for (const std::vector<Request>& group : groups) {
    for (const Request& request : group) {
      if (request.deadline_ns != 0) any_deadline = true;
    }
  }
  const uint64_t resolve_ns =
      (telemetry || any_deadline) ? obs::MonotonicNs() : 0;
  if (any_deadline) {
    // Counted before the waiters unblock so a client that just resolved
    // reads an up-to-date miss counter.
    static obs::Counter* deadline_miss =
        obs::GetCounter(obs::names::kServeDeadlineMiss);
    for (const std::vector<Request>& group : groups) {
      for (const Request& request : group) {
        if (request.deadline_ns != 0 && resolve_ns > request.deadline_ns) {
          deadline_miss->Increment();
        }
      }
    }
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    for (Request& request : groups[g]) {
      if (request.callback) {
        request.callback(predictions[g]);
      } else {
        request.promise.set_value(predictions[g]);
      }
    }
  }
  if (!telemetry) return;

  // Waiters are unblocked; record per-request telemetry at leisure.
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const Request& request : groups[g]) {
      if (metrics) {
        stage_dispatch->Record(request.forward_start_ns - request.seal_ns);
        stage_forward->Record(request.forward_end_ns -
                              request.forward_start_ns);
        stage_resolve->Record(resolve_ns - request.forward_end_ns);
        latency->Record(resolve_ns - request.enqueue_ns);
      }
      if (metrics || access_log_ != nullptr) {
        RequestExemplar exemplar;
        exemplar.id = request.id;
        exemplar.enqueue_ns = request.enqueue_ns;
        exemplar.seal_ns = request.seal_ns;
        exemplar.forward_start_ns = request.forward_start_ns;
        exemplar.forward_end_ns = request.forward_end_ns;
        exemplar.resolve_ns = resolve_ns;
        exemplar.latency_ns = resolve_ns - request.enqueue_ns;
        exemplar.batch_size = static_cast<int>(batch.size());
        exemplar.coalesced_group = static_cast<int>(groups[g].size());
        exemplar.prediction = predictions[g];
        if (metrics) ExemplarStore::Instance().Record(exemplar);
        if (access_log_ != nullptr) {
          const std::string line = exemplar.ToJson();
          std::fwrite(line.data(), 1, line.size(), access_log_);
          std::fputc('\n', access_log_);
        }
      }
    }
  }
  if (access_log_ != nullptr) std::fflush(access_log_);
}

}  // namespace hap::serve
