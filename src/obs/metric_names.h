// Canonical metric names. Every instrumentation site and every reader
// (run logger, HAP_METRICS dump, tests) goes through these constants so
// the name space stays greppable and typo-free.
//
// Convention: dot-separated, lowercase, <layer>.<subject>.<aspect>.
// Counters are monotonic totals; `*_ns` histograms record per-call
// wall-clock nanoseconds and are only populated when detailed metrics
// are enabled (HAP_METRICS / SetMetricsEnabled).
#ifndef HAP_OBS_METRIC_NAMES_H_
#define HAP_OBS_METRIC_NAMES_H_

namespace hap::obs::names {

// --- src/tensor kernels ---
inline constexpr char kMatMulCalls[] = "tensor.matmul.calls";
inline constexpr char kMatMulFlops[] = "tensor.matmul.flops";
inline constexpr char kMatMulNs[] = "tensor.matmul.ns";
inline constexpr char kSpMatMulCalls[] = "tensor.spmatmul.calls";
inline constexpr char kSpMatMulFlops[] = "tensor.spmatmul.flops";
inline constexpr char kSpMatMulNs[] = "tensor.spmatmul.ns";
// Fused CSR triple product MᵀAM (docs/SPARSE.md).
inline constexpr char kCsrCoarsenCalls[] = "tensor.csrcoarsen.calls";
inline constexpr char kCsrCoarsenFlops[] = "tensor.csrcoarsen.flops";
inline constexpr char kCsrCoarsenNs[] = "tensor.csrcoarsen.ns";
// Kernel-dispatch decisions (docs/PERFORMANCE.md): which MatMul forward
// kernel the dispatcher picked.
inline constexpr char kMatMulDispatchBlocked[] =
    "tensor.matmul.dispatch.blocked";
inline constexpr char kMatMulDispatchNaive[] = "tensor.matmul.dispatch.naive";
// Reduced-precision eval dispatch (tensor/quant.h): forwards that ran on
// the int8 kernel family instead of the fp32 contract kernels.
inline constexpr char kMatMulDispatchInt8[] = "tensor.matmul.dispatch.int8";

// --- src/tensor arena (step-scoped buffer pool, src/tensor/arena.h) ---
inline constexpr char kMemPoolHit[] = "mem.pool.hit";
inline constexpr char kMemPoolMiss[] = "mem.pool.miss";
inline constexpr char kMemPoolEvicted[] = "mem.pool.evicted";
inline constexpr char kMemPoolBytesAllocated[] = "mem.pool.bytes_allocated";
inline constexpr char kMemPoolBytes[] = "mem.pool.bytes";  // gauge
inline constexpr char kMemArenaSteps[] = "mem.arena.steps";
inline constexpr char kMemScratchGrowBytes[] = "mem.scratch.grow_bytes";

// --- src/graph GraphLevel ---
inline constexpr char kGraphCacheHit[] = "graph_level.cache.hit";
inline constexpr char kGraphCacheMiss[] = "graph_level.cache.miss";
inline constexpr char kGraphUncached[] = "graph_level.cache.uncached";
inline constexpr char kDispatchDense[] = "graph_level.dispatch.dense";
inline constexpr char kDispatchSparse[] = "graph_level.dispatch.sparse";

// --- src/common ThreadPool ---
inline constexpr char kPoolJobs[] = "threadpool.jobs";
inline constexpr char kPoolTasks[] = "threadpool.tasks";
inline constexpr char kPoolBusyNs[] = "threadpool.busy_ns";
inline constexpr char kPoolQueueWaitNs[] = "threadpool.queue_wait_ns";

// --- src/core coarsening ---
inline constexpr char kCoarsenCalls[] = "coarsen.calls";
inline constexpr char kCoarsenNodesIn[] = "coarsen.nodes_in";
inline constexpr char kCoarsenClustersOut[] = "coarsen.clusters_out";
inline constexpr char kCoarsenNs[] = "coarsen.ns";
// Sparsity-preserving coarsening (docs/SPARSE.md): which A' = MᵀAM path a
// coarsening call dispatched to, the per-level assignment entries the
// top-k sparsification kept/dropped, and topk/auto requests that had to
// fall back to the dense product (no CSR view, e.g. taped inner levels).
inline constexpr char kCoarsenModeDense[] = "coarsen.mode.dense";
inline constexpr char kCoarsenModeTopk[] = "coarsen.mode.topk";
inline constexpr char kCoarsenTopkKept[] = "coarsen.topk.nnz_kept";
inline constexpr char kCoarsenTopkDropped[] = "coarsen.topk.nnz_dropped";
inline constexpr char kCoarsenSparseFallback[] = "coarsen.sparse_fallback";

// --- src/train ---
inline constexpr char kTrainBatches[] = "train.batches";
inline constexpr char kTrainExamples[] = "train.examples";

// --- src/serve ---
inline constexpr char kServeRequests[] = "serve.requests.total";
inline constexpr char kServeRejected[] = "serve.requests.rejected";
inline constexpr char kServeCoalesced[] = "serve.requests.coalesced";
inline constexpr char kServeBatches[] = "serve.batches.total";
inline constexpr char kServeBatchSize[] = "serve.batch.size";
inline constexpr char kServeQueueWaitNs[] = "serve.queue_wait.ns";
inline constexpr char kServeComputeNs[] = "serve.compute.ns";
inline constexpr char kServeBatchedForwards[] = "serve.batched_forwards.total";
inline constexpr char kServeReloads[] = "serve.model.reloads";
// Per-request stage latencies (docs/OBSERVABILITY.md "Request tracing"):
// Sketch metrics (tail-accurate quantiles), recorded per request when
// telemetry is on. Stages partition the end-to-end latency:
//   queue_wait (admission → batch seal, kServeQueueWaitNs above) +
//   dispatch (batch seal → lane forward start) +
//   forward (lane forward start → end) +
//   resolve (forward end → future resolved).
inline constexpr char kServeStageDispatchNs[] = "serve.stage.dispatch.ns";
inline constexpr char kServeStageForwardNs[] = "serve.stage.forward.ns";
inline constexpr char kServeStageResolveNs[] = "serve.stage.resolve.ns";
// End-to-end request latency, admission to future-resolve.
inline constexpr char kServeLatencyNs[] = "serve.latency.ns";
// Slow-request exemplars captured / normal requests reservoir-sampled
// (src/serve/telemetry.h).
inline constexpr char kServeExemplarsSlow[] = "serve.exemplars.slow";
inline constexpr char kServeExemplarsSampled[] = "serve.exemplars.sampled";
// SLO machinery (docs/SERVING.md "Network front end & SLOs").
// Load shedding: requests refused with a typed ResourceExhausted before
// touching the batcher, split by trigger (queue depth vs live-latency
// SLO breach). serve.shed.total is the sum of the two.
inline constexpr char kServeShedTotal[] = "serve.shed.total";
inline constexpr char kServeShedQueueDepth[] = "serve.shed.queue_depth";
inline constexpr char kServeShedLatency[] = "serve.shed.latency";
// Requests that resolved after their absolute deadline (they still get
// their prediction; the counter is the SLO signal).
inline constexpr char kServeDeadlineMiss[] = "serve.deadline_miss.total";
// Requests whose deadline had already passed when their batch sealed:
// the engine resolves them with DEADLINE_EXCEEDED instead of spending a
// lane forward on a result nobody will read.
inline constexpr char kServeDeadlineSkipped[] = "serve.deadline_miss.skipped";
// Content-hash prepared-graph cache (serve/graph_cache.h): identical
// wire requests re-use one PreparedGraph, so GraphLevel warm caches —
// and the engine's pointer-identity coalescing — carry across requests.
inline constexpr char kServeCacheHit[] = "serve.cache.hit";
inline constexpr char kServeCacheMiss[] = "serve.cache.miss";
inline constexpr char kServeCacheEvicted[] = "serve.cache.evicted";
// Network front end (serve/server.h): connections accepted over the
// listener's lifetime, requests decoded per protocol, and frames/HTTP
// requests the server could not parse (the connection is closed).
inline constexpr char kServeNetConnections[] = "serve.net.connections";
inline constexpr char kServeNetRequestsBinary[] = "serve.net.requests.binary";
inline constexpr char kServeNetRequestsHttp[] = "serve.net.requests.http";
inline constexpr char kServeNetProtocolErrors[] = "serve.net.protocol_errors";
// Slowloris defences (ServerConfig::{max_connections, idle_timeout_ms}):
// connections refused because the cap was reached, and established
// connections reaped after sitting idle past the timeout.
inline constexpr char kServeNetConnRefused[] = "serve.net.conn_refused";
inline constexpr char kServeNetIdleClosed[] = "serve.net.idle_closed";

}  // namespace hap::obs::names

#endif  // HAP_OBS_METRIC_NAMES_H_
