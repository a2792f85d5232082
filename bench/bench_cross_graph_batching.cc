// Cross-graph batching harness (docs/BATCHING.md): measures what serving
// N DISTINCT graphs as one batched eval-mode forward buys over smaller
// batches — closed-loop throughput of the InferenceEngine on a stream of
// distinct graphs (no hot keys, so duplicate coalescing cannot help) at
// max_batch 1/4/16/64. At max_batch 1 every lane chunk is a batch of one
// graph, which is the per-graph baseline.
//
// Each configuration is replayed many times, the batch sizes round-robin
// within each repetition so drift on a shared host lands on all of them,
// and reports the median and quartiles of its replays' throughput. A
// method's batch-16-vs-1 speedup is the ratio of the two medians; its
// quartiles are those of the per-repetition ratios.
//
// Correctness gate: every served prediction must be bit-identical to the
// model's direct per-graph forward — the bench exits nonzero on any
// mismatch. The acceptance gate checked by scripts/check.sh reads the
// committed JSON: the median serve throughput at batch 16 must be >= 2x
// batch 1 for SumPool (the flat GIN-family architecture, whose per-graph
// forwards are tape-overhead-bound — the regime batching targets).
// MeanPool and HAP figures are reported ungated; HAP's per-segment
// attention blocks amortise less.
//
// Emits BENCH_cross_graph_batching.json (path overridable as argv[1]).
// Set HAP_BENCH_FAST=1 for a quick smoke run.

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
#include "tensor/serialize.h"
#include "train/classifier.h"
#include "train/model_zoo.h"
#include "train/prepared.h"

namespace hap::bench {
namespace {

using serve::EngineConfig;
using serve::InferenceEngine;
using serve::ServedModel;
using serve::ServedModelConfig;

constexpr int kHidden = 16;

struct ServeResult {
  double wall_ms = 0.0;
  double qps = 0.0;
  // Per-run end-to-end latency percentiles from the engine's
  // serve.latency.ns sketch (microseconds; obs/sketch.h error contract).
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  bool bit_identical = true;
};

/// Replays `stream` (indices into `prepared`) through one engine
/// configuration and checks every prediction against `reference` (the
/// model's direct per-graph forwards). The client keeps max_batch
/// requests in flight (submit a wave, wait for it, repeat) — the
/// standard closed-loop protocol for a micro-batching front end: at
/// max_batch 1 every request pays the full submit/dispatch/wake round
/// trip, and raising max_batch both fills the engine's micro-batches
/// and amortises that round trip, which is precisely what the knob is
/// for.
ServeResult RunClosedLoop(const std::shared_ptr<const ServedModel>& model,
                          const EngineConfig& config,
                          const std::vector<PreparedGraph>& prepared,
                          const std::vector<int>& stream,
                          const std::vector<int>& reference) {
  const obs::SketchSnapshot latency_before =
      obs::SnapshotSketch(obs::names::kServeLatencyNs);
  InferenceEngine engine(model, config);
  ServeResult run;
  const size_t concurrency = static_cast<size_t>(config.max_batch);
  std::vector<std::future<int>> wave;
  const auto start = std::chrono::steady_clock::now();
  for (size_t offset = 0; offset < stream.size(); offset += concurrency) {
    const size_t stop = std::min(stream.size(), offset + concurrency);
    wave.clear();
    for (size_t i = offset; i < stop; ++i) {
      StatusOr<std::future<int>> result = engine.Submit(prepared[stream[i]]);
      HAP_CHECK(result.ok()) << result.status().ToString();
      wave.push_back(std::move(result.value()));
    }
    // Reap the wave newest-first: the engine fulfils promises in
    // submission order, so blocking on the last future first means one
    // client wake-up per wave instead of one per request (each of which
    // could preempt the engine mid-fanout on a single core).
    for (size_t i = stop; i-- > offset;) {
      if (wave[i - offset].get() != reference[stream[i]]) {
        run.bit_identical = false;
      }
    }
  }
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  engine.Shutdown();
  run.qps = static_cast<double>(stream.size()) / (run.wall_ms / 1000.0);
  const obs::SketchSnapshot latency =
      obs::SnapshotSketch(obs::names::kServeLatencyNs)
          .DeltaSince(latency_before);
  run.latency_p50_us = latency.Quantile(0.50) / 1e3;
  run.latency_p99_us = latency.Quantile(0.99) / 1e3;
  return run;
}

}  // namespace
}  // namespace hap::bench

int main(int argc, char** argv) {
  using namespace hap;
  using namespace hap::bench;

  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_cross_graph_batching.json";
  const int pool_size = 64;
  const int requests = FastOr(2000, 2000);
  const std::vector<int> batch_sizes = {1, 4, 16, 64};
  const std::vector<std::string> methods = {"SumPool", "MeanPool", "HAP"};

  SetNumThreads(1);  // isolate batching from thread fan-out
  // Latency percentiles come from the engine's streaming sketches
  // (metrics must be on); metrics never feed back into the math.
  obs::SetMetricsEnabled(true);

  // Mixed-size distinct graph pool: MUTAG-like sizes (~10–28 nodes), so
  // per-graph GEMMs sit below the blocked-kernel threshold while batched
  // forwards cross it — the shape regime batching is built for.
  Rng rng(11);
  GraphDataset dataset = MakeMutagLike(pool_size, &rng);
  std::vector<PreparedGraph> prepared = PrepareDataset(dataset);

  // Distinct-graph request stream: uniform over the pool, so duplicate
  // coalescing finds almost nothing and batching does the work.
  std::vector<int> stream;
  stream.reserve(requests);
  Rng traffic(29);
  for (int i = 0; i < requests; ++i) {
    stream.push_back(static_cast<int>(traffic.Uniform() * pool_size));
  }

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("cross_graph_batching"));
  json.Field("pool_graphs", pool_size);
  json.Field("requests", requests);

  bool all_identical = true;

  // --- Serving: closed-loop throughput on the distinct-graph stream. ---
  // Medians over `serve_reps` short (~2000-request) replays per
  // configuration: one window on a shared host can land in a
  // descheduling stall or a quiet spell, so no single replay, nor the
  // best one, says what the code does.
  const int serve_reps = FastOr(1, 15);
  std::printf(
      "serve throughput (1 lane, distinct-graph stream, median of %d):\n",
      serve_reps);
  json.Field("serve_replays", serve_reps);
  // Per method, per batch size, one throughput per repetition.
  std::vector<std::vector<std::vector<double>>> qps(
      methods.size(), std::vector<std::vector<double>>(batch_sizes.size()));
  json.BeginArray("serving");
  for (size_t m = 0; m < methods.size(); ++m) {
    const std::string& method = methods[m];
    ServedModelConfig model_config;
    model_config.method = method;
    model_config.feature_dim = dataset.feature_spec.FeatureDim();
    model_config.hidden = kHidden;
    model_config.num_classes = dataset.num_classes;
    model_config.lanes = 1;
    const std::string checkpoint = "bench_cross_batch_ckpt.tmp";
    {
      Rng init(5);
      GraphClassifier writer(
          MakeEmbedderByName(method, model_config.feature_dim, kHidden,
                             &init),
          model_config.num_classes, kHidden, &init);
      if (!SaveModule(writer, checkpoint).ok()) {
        std::fprintf(stderr, "cannot write %s\n", checkpoint.c_str());
        return 1;
      }
    }
    auto model = ServedModel::Load(model_config, checkpoint);
    std::remove(checkpoint.c_str());
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    std::vector<int> reference;
    reference.reserve(prepared.size());
    for (const PreparedGraph& g : prepared) {
      reference.push_back(model.value()->Predict(g, 0));
    }
    // Repetitions are interleaved across batch sizes (round-robin)
    // rather than run back-to-back, so one size's windows spread across
    // the whole sweep — a noise burst can poison one window per size, not
    // every window of one size.
    std::vector<std::vector<double>> p50(batch_sizes.size());
    std::vector<std::vector<double>> p99(batch_sizes.size());
    std::vector<bool> identical(batch_sizes.size(), true);
    for (int rep = 0; rep < serve_reps; ++rep) {
      for (size_t ci = 0; ci < batch_sizes.size(); ++ci) {
        EngineConfig engine_config;
        engine_config.max_batch = batch_sizes[ci];
        engine_config.max_delay_us = 200;
        const ServeResult run = RunClosedLoop(model.value(), engine_config,
                                              prepared, stream, reference);
        all_identical = all_identical && run.bit_identical;
        identical[ci] = identical[ci] && run.bit_identical;
        qps[m][ci].push_back(run.qps);
        p50[ci].push_back(run.latency_p50_us);
        p99[ci].push_back(run.latency_p99_us);
      }
    }
    for (size_t ci = 0; ci < batch_sizes.size(); ++ci) {
      const double median = Quantile(qps[m][ci], 0.5);
      const double q1 = Quantile(qps[m][ci], 0.25);
      const double q3 = Quantile(qps[m][ci], 0.75);
      const double latency_p99 = Quantile(p99[ci], 0.5);
      std::printf(
          "  %-8s max_batch %2d: %8.0f req/s (quartiles %.0f-%.0f)  "
          "p99 %7.0f us  (%s)\n",
          method.c_str(), batch_sizes[ci], median, q1, q3, latency_p99,
          identical[ci] ? "bit-identical" : "MISMATCH");
      json.BeginObject();
      json.Field("method", method);
      json.Field("max_batch", batch_sizes[ci]);
      json.Field("wall_ms", 1000.0 * requests / median);
      json.Field("throughput_qps", median);
      json.Field("throughput_qps_q1", q1);
      json.Field("throughput_qps_q3", q3);
      json.Field("latency_p50_us", Quantile(p50[ci], 0.5));
      json.Field("latency_p99_us", latency_p99);
      json.Field("bit_identical", static_cast<bool>(identical[ci]));
      json.EndObject();
    }
  }
  json.EndArray();

  // Per-method batch-16-vs-1 speedups; the acceptance gate is SumPool
  // (flat GIN family — the architecture whose per-graph forwards are
  // tape-overhead-bound, the regime cross-graph batching targets).
  // HAP's per-segment attention blocks amortise less; its figure is
  // reported but not gated.
  const size_t b1 = 0, b16 = 2;
  HAP_CHECK(batch_sizes[b1] == 1 && batch_sizes[b16] == 16);
  double gate_speedup = 0.0;
  json.BeginArray("serve_speedups");
  for (size_t m = 0; m < methods.size(); ++m) {
    const double speedup =
        Quantile(qps[m][b16], 0.5) / Quantile(qps[m][b1], 0.5);
    std::vector<double> paired;
    for (int rep = 0; rep < serve_reps; ++rep) {
      paired.push_back(qps[m][b16][rep] / qps[m][b1][rep]);
    }
    const double q1 = Quantile(paired, 0.25), q3 = Quantile(paired, 0.75);
    if (methods[m] == "SumPool") gate_speedup = speedup;
    std::printf(
        "  %-8s serve speedup batch16/batch1: %.2fx (paired quartiles "
        "%.2f-%.2fx)\n",
        methods[m].c_str(), speedup, q1, q3);
    json.BeginObject();
    json.Field("method", methods[m]);
    json.Field("speedup_batch16_vs_1", speedup);
    json.Field("speedup_batch16_vs_1_q1", q1);
    json.Field("speedup_batch16_vs_1_q3", q3);
    json.EndObject();
  }
  json.EndArray();
  json.Field("gate_method", std::string("SumPool"));
  json.Field("serve_speedup_batch16_vs_1", gate_speedup);
  json.Field("meets_2x", gate_speedup >= 2.0);
  json.Field("all_bit_identical", all_identical);
  json.EndObject();
  std::printf("gate (SumPool) %.2fx vs >= 2x: %s%s\n", gate_speedup,
              gate_speedup >= 2.0 ? "PASS" : "FAIL",
              all_identical ? "" : "  PREDICTION MISMATCH");
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("-> %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}
