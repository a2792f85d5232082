// Serving throughput harness: replays a hot-key request stream through
// the InferenceEngine closed-loop and compares micro-batched serving
// (max_batch = 16, duplicate coalescing on) against one-at-a-time
// serving (max_batch = 1) at several thread-pool widths.
//
// The workload models production inference traffic: a small set of hot
// graphs dominates the stream (caches, retries, trending entities), so a
// micro-batch usually contains few unique graphs. Coalescing collapses
// those duplicates into one forward each — that, plus amortised dispatch
// overhead and (on multicore) lane fan-out, is where the batched speedup
// comes from; the JSON records the measured coalesce factor alongside the
// throughput so the result is interpretable on any machine.
//
// Correctness gate: every prediction from every configuration must be
// bit-identical to the model's direct single-graph forwards (eval mode is
// deterministic; batching and thread width must not change results).
//
// Latency percentiles come from the engine's own streaming sketches
// (serve.latency.ns / serve.queue_wait.ns, obs/sketch.h): each run takes
// a sketch snapshot before and after, and DeltaSince + Quantile give the
// run's p50/p99 within the sketch's documented <= 2% error — the same
// numbers a production scrape would report. A final control pair reruns
// one configuration with metrics off vs on and records the throughput
// ratio (metrics_overhead), pinning the instrumentation cost in the JSON.
//
// Emits BENCH_serve_throughput.json (path overridable as argv[1]).
// Set HAP_BENCH_FAST=1 for a quick smoke run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "tensor/quant.h"
#include "tensor/serialize.h"
#include "train/classifier.h"
#include "train/prepared.h"

namespace hap::bench {
namespace {

using serve::EngineConfig;
using serve::InferenceEngine;
using serve::ServedModel;
using serve::ServedModelConfig;

struct RunResult {
  double wall_ms = 0.0;
  double qps = 0.0;
  double coalesce_factor = 1.0;  // requests per unique forward
  // End-to-end and queue-wait percentiles from the engine's sketches
  // (microseconds); zero when metrics were disabled for the run.
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double queue_wait_p99_us = 0.0;
  double agreement = 1.0;  // fraction of predictions matching `reference`
  bool bit_identical = true;
};

/// Replays `stream` (indices into `prepared`) through one engine
/// configuration as fast as admission allows and checks every prediction
/// against `reference`.
RunResult RunClosedLoop(const std::shared_ptr<const ServedModel>& model,
                        const EngineConfig& config,
                        const std::vector<PreparedGraph>& prepared,
                        const std::vector<int>& stream,
                        const std::vector<int>& reference) {
  const uint64_t requests_before =
      obs::CounterValue(obs::names::kServeRequests);
  const uint64_t coalesced_before =
      obs::CounterValue(obs::names::kServeCoalesced);
  const obs::SketchSnapshot latency_before =
      obs::SnapshotSketch(obs::names::kServeLatencyNs);
  const obs::SketchSnapshot queue_wait_before =
      obs::SnapshotSketch(obs::names::kServeQueueWaitNs);

  InferenceEngine engine(model, config);
  std::vector<std::future<int>> futures;
  futures.reserve(stream.size());
  const auto start = std::chrono::steady_clock::now();
  for (int graph : stream) {
    while (true) {
      StatusOr<std::future<int>> result = engine.Submit(prepared[graph]);
      if (result.ok()) {
        futures.push_back(std::move(result.value()));
        break;
      }
      std::this_thread::yield();  // backpressure: retry until admitted
    }
  }
  RunResult run;
  size_t matches = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    if (futures[i].get() == reference[stream[i]]) ++matches;
  }
  run.agreement = futures.empty()
                      ? 1.0
                      : static_cast<double>(matches) /
                            static_cast<double>(futures.size());
  run.bit_identical = matches == futures.size();
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  engine.Shutdown();

  run.qps = static_cast<double>(stream.size()) / (run.wall_ms / 1000.0);
  const uint64_t admitted =
      obs::CounterValue(obs::names::kServeRequests) - requests_before;
  const uint64_t coalesced =
      obs::CounterValue(obs::names::kServeCoalesced) - coalesced_before;
  if (admitted > coalesced) {
    run.coalesce_factor = static_cast<double>(admitted) /
                          static_cast<double>(admitted - coalesced);
  }
  const obs::SketchSnapshot latency =
      obs::SnapshotSketch(obs::names::kServeLatencyNs)
          .DeltaSince(latency_before);
  const obs::SketchSnapshot queue_wait =
      obs::SnapshotSketch(obs::names::kServeQueueWaitNs)
          .DeltaSince(queue_wait_before);
  run.latency_p50_us = latency.Quantile(0.50) / 1e3;
  run.latency_p99_us = latency.Quantile(0.99) / 1e3;
  run.queue_wait_p99_us = queue_wait.Quantile(0.99) / 1e3;
  return run;
}

}  // namespace
}  // namespace hap::bench

int main(int argc, char** argv) {
  using namespace hap;
  using namespace hap::bench;

  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_serve_throughput.json";
  // Sketch-based latency percentiles need detailed metrics; the overhead
  // control below measures what that costs.
  obs::SetMetricsEnabled(true);
  const int requests = FastOr(400, 3000);
  const int pool_size = 32;
  const int hot_graphs = 2;
  const double hot_fraction = 0.95;

  // Model + checkpoint (untrained weights; serving cost is identical).
  Rng rng(11);
  GraphDataset dataset = MakeMutagLike(pool_size, &rng);
  std::vector<PreparedGraph> prepared = PrepareDataset(dataset);
  ServedModelConfig model_config;
  model_config.method = "HAP";
  model_config.feature_dim = dataset.feature_spec.FeatureDim();
  model_config.hidden = 8;
  model_config.num_classes = dataset.num_classes;
  const std::string checkpoint = "bench_serve_ckpt.tmp";
  {
    Rng init(5);
    GraphClassifier writer(
        MakeEmbedderByName(model_config.method, model_config.feature_dim,
                           model_config.hidden, &init),
        model_config.num_classes, model_config.hidden, &init);
    if (!SaveModule(writer, checkpoint).ok()) {
      std::fprintf(stderr, "cannot write %s\n", checkpoint.c_str());
      return 1;
    }
  }

  // Hot-key request stream: `hot_fraction` of requests hit the first
  // `hot_graphs` graphs, the rest spread uniformly over the pool.
  std::vector<int> stream;
  stream.reserve(requests);
  Rng traffic(29);
  for (int i = 0; i < requests; ++i) {
    if (traffic.Uniform() < hot_fraction) {
      stream.push_back(static_cast<int>(traffic.Uniform() * hot_graphs));
    } else {
      stream.push_back(static_cast<int>(traffic.Uniform() * pool_size));
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("serve_throughput"));
  json.Field("requests", requests);
  json.Field("pool_graphs", pool_size);
  json.Field("hot_graphs", hot_graphs);
  json.Field("hot_fraction", hot_fraction);

  bool all_identical = true;
  double qps_batch1_t1 = 0.0, qps_batch16_t1 = 0.0;
  json.BeginArray("runs");
  for (int threads : {1, 2}) {
    SetNumThreads(threads);
    for (int max_batch : {1, 16}) {
      ServedModelConfig lanes_config = model_config;
      lanes_config.lanes = max_batch;
      auto model = ServedModel::Load(lanes_config, checkpoint);
      if (!model.ok()) {
        std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
        return 1;
      }
      // Direct single-graph forwards: the bit-identity reference.
      std::vector<int> reference;
      reference.reserve(prepared.size());
      for (const PreparedGraph& g : prepared) {
        reference.push_back(model.value()->Predict(g, 0));
      }
      EngineConfig config;
      config.max_batch = max_batch;
      config.max_delay_us = 200;
      const RunResult run = RunClosedLoop(model.value(), config, prepared,
                                          stream, reference);
      all_identical = all_identical && run.bit_identical;
      if (threads == 1 && max_batch == 1) qps_batch1_t1 = run.qps;
      if (threads == 1 && max_batch == 16) qps_batch16_t1 = run.qps;
      std::printf(
          "threads %d  max_batch %2d : %8.0f req/s  p50 %6.0f us  "
          "p99 %7.0f us  (%.1f req/forward, %s)\n",
          threads, max_batch, run.qps, run.latency_p50_us,
          run.latency_p99_us, run.coalesce_factor,
          run.bit_identical ? "bit-identical" : "MISMATCH");
      json.BeginObject();
      json.Field("threads", threads);
      json.Field("max_batch", max_batch);
      json.Field("wall_ms", run.wall_ms);
      json.Field("throughput_qps", run.qps);
      json.Field("coalesce_factor", run.coalesce_factor);
      json.Field("latency_p50_us", run.latency_p50_us);
      json.Field("latency_p99_us", run.latency_p99_us);
      json.Field("queue_wait_p99_us", run.queue_wait_p99_us);
      json.Field("bit_identical", run.bit_identical);
      json.EndObject();
    }
  }
  json.EndArray();

  // Metrics-overhead control: the batched single-thread configuration
  // once with detailed metrics (sketches, stage stamps) off and once on,
  // best of `overhead_reps` each to shed scheduler noise. The ratio is
  // reported, not gated — it documents what always-on telemetry costs.
  {
    SetNumThreads(1);
    const int overhead_reps = FastOr(1, 5);
    ServedModelConfig lanes_config = model_config;
    lanes_config.lanes = 16;
    auto model = ServedModel::Load(lanes_config, checkpoint);
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    std::vector<int> reference;
    reference.reserve(prepared.size());
    for (const PreparedGraph& g : prepared) {
      reference.push_back(model.value()->Predict(g, 0));
    }
    EngineConfig config;
    config.max_batch = 16;
    config.max_delay_us = 200;
    double qps_off = 0.0, qps_on = 0.0;
    for (int rep = 0; rep < overhead_reps; ++rep) {
      obs::SetMetricsEnabled(false);
      const RunResult off = RunClosedLoop(model.value(), config, prepared,
                                          stream, reference);
      obs::SetMetricsEnabled(true);
      const RunResult on = RunClosedLoop(model.value(), config, prepared,
                                         stream, reference);
      all_identical = all_identical && off.bit_identical && on.bit_identical;
      qps_off = std::max(qps_off, off.qps);
      qps_on = std::max(qps_on, on.qps);
    }
    const double overhead_pct =
        qps_off > 0.0 ? (qps_off - qps_on) / qps_off * 100.0 : 0.0;
    std::printf(
        "metrics overhead (1 thread, max_batch 16): off %8.0f req/s, "
        "on %8.0f req/s (%.1f%%)\n",
        qps_off, qps_on, overhead_pct);
    json.BeginObject("metrics_overhead");
    json.Field("qps_metrics_off", qps_off);
    json.Field("qps_metrics_on", qps_on);
    json.Field("overhead_pct", overhead_pct);
    json.EndObject();
  }
  // Precision-parity gate: replay the same stream through the engine at
  // each serving precision (tensor/quant.h) and score every prediction
  // against the fp32 model's direct single-graph forwards. fp32 must stay
  // bit-identical; int8 is not bit-exact, so it gates on class
  // agreement >= 99% instead — the wiring check that reduced-precision
  // plumbing (lane scales, engine PrecisionScope, calibration) cannot
  // silently corrupt served predictions. The accuracy deep-dive (Kendall
  // tau on a size-ladder corpus) lives in bench_quantized_gemm.
  double parity_min_agreement = 1.0;
  {
    SetNumThreads(1);
    ServedModelConfig ref_config = model_config;
    ref_config.lanes = 16;
    auto ref_model = ServedModel::Load(ref_config, checkpoint);
    if (!ref_model.ok()) {
      std::fprintf(stderr, "%s\n", ref_model.status().ToString().c_str());
      return 1;
    }
    std::vector<int> reference;
    reference.reserve(prepared.size());
    for (const PreparedGraph& g : prepared) {
      reference.push_back(ref_model.value()->Predict(g, 0));
    }
    json.BeginArray("precision_parity");
    for (Precision precision : {Precision::kFp32, Precision::kInt8}) {
      ServedModelConfig pconfig = ref_config;
      pconfig.precision = precision;
      if (precision == Precision::kInt8) {
        pconfig.calibration_graphs = prepared;
      }
      auto model = ServedModel::Load(pconfig, checkpoint);
      if (!model.ok()) {
        std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
        return 1;
      }
      EngineConfig config;
      config.max_batch = 16;
      config.max_delay_us = 200;
      const RunResult run = RunClosedLoop(model.value(), config, prepared,
                                          stream, reference);
      if (precision == Precision::kFp32) {
        all_identical = all_identical && run.bit_identical;
      }
      parity_min_agreement = std::min(parity_min_agreement, run.agreement);
      std::printf("parity %-4s : %8.0f req/s  agreement %.4f%s\n",
                  PrecisionName(precision), run.qps, run.agreement,
                  run.agreement >= 0.99 ? "" : "  GATE FAILED");
      json.BeginObject();
      json.Field("precision", std::string(PrecisionName(precision)));
      json.Field("throughput_qps", run.qps);
      json.Field("agreement_vs_fp32", run.agreement);
      json.EndObject();
    }
    json.EndArray();
  }
  SetNumThreads(1);
  const bool parity_pass = parity_min_agreement >= 0.99;
  json.Field("parity_min_agreement", parity_min_agreement);
  json.Field("parity_pass", parity_pass);

  const double speedup =
      qps_batch1_t1 > 0.0 ? qps_batch16_t1 / qps_batch1_t1 : 0.0;
  json.Field("speedup_batch16_vs_batch1", speedup);
  json.Field("meets_4x", speedup >= 4.0);
  json.Field("all_bit_identical", all_identical);
  json.EndObject();
  std::printf("batched speedup (1 thread): %.2fx  %s\n", speedup,
              all_identical ? "" : "PREDICTION MISMATCH");
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("-> %s\n", out_path.c_str());
  std::remove(checkpoint.c_str());
  return (all_identical && parity_pass) ? 0 : 1;
}
