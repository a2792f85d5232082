#include "report.h"

#include <cmath>
#include <cstdio>
#include <iterator>

namespace perfbench {
namespace {

// End-to-end metrics: what a caller of the serving stack or the library
// sees. Every workload reports all of them. Times are in reference
// seconds (pace.h): each wall interval is scaled by the host's pace,
// probed on the same thread within half a second of it, so that the
// figures read as on a host where the benchmark's fixed reference pass
// takes 1 ms and a change of the host's speed between runs does not move
// them.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s",
     "first set-up call until warm-up is done, median of the run's set-up "
     "repetitions; input generation is not counted"},
    {"throughput_per_s", "1/s",
     "serve_replay: requests answered per second of request time, median "
     "over the run's seconds; train_hap: training graphs per second of "
     "TrainClassifier time, median over calls; embed_large: forwards per "
     "second at the median forward time"},
    {"latency_p50_ms", "ms",
     "serve_replay: per request, frame decode to answer encode, the median "
     "over the run's seconds of each second's percentile; train_hap: per "
     "optimizer step, the percentile over the steps of each step's fastest "
     "of three passes of the same steps; embed_large: per forward, the "
     "percentile over 100 positions of each position's fastest over blocks "
     "of 100 forwards"},
    {"latency_p90_ms", "ms",
     "as latency_p50_ms; p90 is the highest percentile with at least ten "
     "samples beyond it on every workload"},
    {"peak_rss_mb", "MB", "the benchmark process's VmHWM at the end of the run"},
    {"ok_share", "share",
     "operations answered without a shed or error / operations attempted"},
};

// Per-layer metrics from the traced run. Each names the end-to-end
// metric it should move and on which workload. A layer a workload never
// reaches reads 0 there: its counters never tick and it has no input to
// replay. The server.*, admission.* and engine.* metrics come from
// serve_replay's drive of the built hap_served over loopback.
constexpr MetricDef kPerLayer[] = {
    {"server.wire_p50_us", "us",
     "client p50 minus the server's serve.latency.ns p50 over the same "
     "window: event loop, parsing, cache and sockets; the client/server gap "
     "the latency of hap_served's clients carries"},
    {"server.parse_us", "us",
     "ReadGraph per request payload; moves throughput_per_s on serve_replay"},
    {"server.frames", "count",
     "serve.net.requests.binary over the daemon window; with "
     "server.protocol_errors it accounts for every frame sent"},
    {"server.protocol_errors", "count",
     "serve.net.protocol_errors over the daemon window; moves ok_share"},
    {"graph_cache.hit_share", "share",
     "serve.cache.hit / (hit + miss), about 0.06 on serve_replay; moves "
     "throughput_per_s"},
    {"graph_cache.key_us", "us",
     "GraphCache::CanonicalKey per request; moves throughput_per_s on "
     "serve_replay"},
    {"graph_cache.miss_prepare_us", "us",
     "GraphCache::Prepare on a miss (featurize plus WarmCaches); moves "
     "throughput_per_s on serve_replay"},
    {"admission.shed", "count",
     "serve.shed.total over the daemon window; moves ok_share"},
    {"engine.queue_wait_p50_us", "us",
     "serve.queue_wait.ns p50 in hap_served; part of its clients' latency"},
    {"engine.dispatch_p50_us", "us",
     "serve.stage.dispatch.ns p50 in hap_served; part of its clients' "
     "latency"},
    {"engine.forward_p50_us", "us",
     "serve.stage.forward.ns p50 in hap_served; part of its clients' "
     "latency"},
    {"engine.resolve_p50_us", "us",
     "serve.stage.resolve.ns p50 in hap_served; part of its clients' "
     "latency"},
    {"engine.batch_size_mean", "requests",
     "serve.batch.size mean in hap_served; larger raises its throughput "
     "and its clients' latency"},
    {"engine.coalesce_ratio", "ratio",
     "requests / (requests - serve.requests.coalesced) in hap_served; near "
     "1 on distinct traffic"},
    {"served_model.load_ms", "ms",
     "ServedModel::Load with 16 lanes; moves setup_s on serve_replay"},
    {"served_model.predict_us", "us",
     "ServedModel::Predict per request; moves throughput_per_s and "
     "latency_p50_ms on serve_replay"},
    {"served_model.predict_batched_us", "us",
     "ServedModel::PredictBatched per graph, 16 distinct graphs per call: "
     "what batching could save against predict_us"},
    {"gnn.encoder_us", "us",
     "GnnEncoder::Forward of a stage-0 encoder on the workload's level; "
     "moves latency_p50_ms on embed_large and serve_replay"},
    {"core.gcont_us", "us",
     "CoarseningModule::ComputeGCont (C = H T) on level 0; moves "
     "latency_p50_ms on embed_large and serve_replay"},
    {"core.moa_us", "us",
     "CoarseningModule::ComputeAttention (MOA logits and softmax) on level "
     "0; moves latency_p50_ms on embed_large and serve_replay"},
    {"core.embed_levels_ms", "ms",
     "HierarchicalEmbedder::EmbedLevels per forward; moves latency_p50_ms "
     "on embed_large"},
    {"core.coarsen_us_per_call", "us",
     "coarsen.ns / coarsen.calls; moves throughput_per_s on every workload"},
    {"core.topk_kept_share", "share",
     "coarsen.topk.nnz_kept / (kept + dropped); moves latency_p50_ms on "
     "embed_large"},
    {"graph.level_warm_ms", "ms",
     "GraphLevel(CsrMatrix) plus WarmCaches; moves setup_s on embed_large"},
    {"graph.prepare_dataset_ms", "ms",
     "PrepareDataset; moves setup_s on train_hap"},
    {"graph_level.cache_hit_share", "share",
     "graph_level.cache.hit / (hit + miss); moves throughput_per_s on "
     "train_hap and serve_replay"},
    {"tensor.matmul_gflops", "GFLOP/s",
     "tensor.matmul.flops / tensor.matmul.ns; moves throughput_per_s on "
     "every workload"},
    {"tensor.matmul_share", "share",
     "tensor.matmul.ns / time in the measured calls: the most any GEMM "
     "change can save"},
    {"tensor.matmul_naive_share", "share",
     "dispatch.naive / (naive + blocked); moves throughput_per_s on "
     "serve_replay and train_hap"},
    {"tensor.spmatmul_ms", "ms",
     "tensor.spmatmul.ns per forward; moves latency_p50_ms on embed_large"},
    {"tensor.csrcoarsen_ms", "ms",
     "tensor.csrcoarsen.ns (fused CSR MtAM) per forward; moves "
     "latency_p50_ms on embed_large"},
    {"tensor.arena_hit_share", "share",
     "mem.pool.hit / (hit + miss); moves throughput_per_s on train_hap"},
    {"tensor.arena_mb", "MB",
     "mem.pool.bytes gauge; moves peak_rss_mb on train_hap"},
    {"train.forward_ms", "ms",
     "GraphClassifier::Loss over one batch of 8; moves throughput_per_s and "
     "latency_p50_ms on train_hap"},
    {"train.backward_ms", "ms",
     "Tensor::Backward on the batch's losses; moves throughput_per_s and "
     "latency_p50_ms on train_hap"},
    {"train.adam_ms", "ms",
     "gradient clipping plus Adam::Step; moves throughput_per_s and "
     "latency_p50_ms on train_hap"},
    {"train.eval_ms", "ms",
     "EvaluateClassifier on the validation split; moves throughput_per_s "
     "on train_hap"},
    {"threadpool.busy_share", "share",
     "threadpool.busy_ns / (time in the measured calls x pool width); moves "
     "throughput_per_s on every workload"},
    {"threadpool.queue_wait_p50_us", "us",
     "threadpool.queue_wait_ns p50; moves latency_p50_ms on embed_large"},
    {"obs.trace_overhead_share", "share",
     "1 - traced / untraced throughput_per_s in one run; moves nothing, it "
     "records what tracing costs"},
};

}  // namespace

void Require(bool ok, const std::string& check, const std::string& detail) {
  if (!ok) throw CheckFailed(check, detail);
}

void Report::Print(bool trace) const {
  const MetricDef* begin = trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* end = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (const MetricDef* m = begin; m != end; ++m) {
    auto it = values_.find(m->name);
    if (it == values_.end()) {
      throw std::logic_error(std::string("metric never set: ") + m->name);
    }
    Require(std::isfinite(it->second), "finite metrics",
            std::string(m->name) + " is not a finite number");
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second);
    std::printf("  %-32s %16.6g %s\n", m->name, it->second, m->unit);
    if (m != begin) json += ", ";
    json += "\"" + std::string(m->name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + m->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
