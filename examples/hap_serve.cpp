// hap_serve: replay driver for the inference serving stack (src/serve).
//
// Loads a checkpoint into an InferenceEngine and replays a stream of
// graphs against it at a target request rate, then reports achieved
// throughput and client-side latency percentiles. The architecture flags
// (--method/--hidden/--dataset) must match the run that produced the
// checkpoint — shapes are verified at load.
//
// Usage:
//   hap_serve --checkpoint path [--dataset mutag|imdb-b|...] [--graphs N]
//             [--input path|-] [--method HAP] [--hidden N] [--requests N]
//             [--qps N] [--max-batch N] [--max-delay-us N] [--seed N]
//             [--predictions-out path] [--access-log path]
//
// Latency percentiles come from the engine's own streaming sketches
// (serve.latency.ns / serve.queue_wait.ns — docs/OBSERVABILITY.md), the
// same numbers the telemetry exporter scrapes. --access-log writes one
// JSON line per request with the full stage breakdown.
//
// Graphs come from --input (a SaveDataset file, or `-` for graph blocks
// on stdin) when given, otherwise from the --dataset generator. Requests
// cycle through the graph pool. --qps 0 (default) replays in a closed
// loop as fast as admission allows. --max-batch must be at least 1 and
// --requests and --max-delay-us at least 0; a value out of range exits 2
// with usage before the checkpoint is read.
//
// Example (train a tiny checkpoint with hap_tool, then serve it):
//   hap_tool classify --dataset mutag --method HAP --graphs 30 --epochs 2
//            --hidden 8 --checkpoint /tmp/hap.ckpt
//   hap_serve --checkpoint /tmp/hap.ckpt --dataset mutag --method HAP
//             --hidden 8 --requests 500 --qps 2000

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "train/prepared.h"

namespace {

using namespace hap;

constexpr char kUsage[] =
    "usage: hap_serve --checkpoint path [--dataset name] [--graphs N]\n"
    "                 [--input path|-] [--method name] [--hidden N]\n"
    "                 [--requests N] [--qps N] [--max-batch N]\n"
    "                 [--max-delay-us N] [--seed N] [--predictions-out path]\n"
    "                 [--coarsen-mode dense|topk|auto] [--topk K]\n"
    "                 [--precision fp32|int8] [--access-log path]\n";

template <typename T>
T FlagValueOrDie(const StatusOr<T>& result) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.status().message().c_str(), kUsage);
    std::exit(2);
  }
  return result.value();
}

GraphDataset MakeDatasetByName(const std::string& name, int graphs,
                               Rng* rng) {
  if (name == "imdb-b") return MakeImdbBinaryLike(graphs, rng);
  if (name == "imdb-m") return MakeImdbMultiLike(graphs, rng);
  if (name == "collab") return MakeCollabLike(graphs, rng);
  if (name == "mutag") return MakeMutagLike(graphs, rng);
  if (name == "proteins") return MakeProteinsLike(graphs, rng);
  if (name == "ptc") return MakePtcLike(graphs, rng);
  std::fprintf(stderr, "unknown dataset '%s'\n%s", name.c_str(), kUsage);
  std::exit(2);
}

std::vector<Graph> ReadGraphsFromStream(std::istream* stream) {
  std::vector<Graph> graphs;
  while (true) {
    StatusOr<Graph> g = ReadGraph(stream);
    if (!g.ok()) break;
    graphs.push_back(g.value());
  }
  return graphs;
}

}  // namespace

int main(int argc, char** argv) {
  StatusOr<Flags> parsed = Flags::Parse(
      argc, argv, 1,
      {"checkpoint", "dataset", "graphs", "input", "method", "hidden",
       "requests", "qps", "max-batch", "max-delay-us", "seed",
       "predictions-out", "coarsen-mode", "topk", "precision",
       "access-log"});
  Flags flags = FlagValueOrDie(parsed);
  const std::string checkpoint = flags.GetString("checkpoint", "");
  if (checkpoint.empty()) {
    std::fprintf(stderr, "--checkpoint is required\n%s", kUsage);
    return 2;
  }
  const std::string dataset_name = flags.GetString("dataset", "mutag");
  const std::string input = flags.GetString("input", "");
  const int pool_graphs = FlagValueOrDie(flags.GetInt("graphs", 32));
  const int requests = FlagValueOrDie(flags.GetInt("requests", 500, 0));
  const int qps = FlagValueOrDie(flags.GetInt("qps", 0));
  const uint64_t seed = FlagValueOrDie(flags.GetUint64("seed", 7));
  serve::EngineConfig engine_config;
  engine_config.max_batch =
      FlagValueOrDie(flags.GetInt("max-batch", engine_config.max_batch, 1));
  engine_config.max_delay_us = FlagValueOrDie(flags.GetInt(
      "max-delay-us", static_cast<int>(engine_config.max_delay_us), 0));
  engine_config.access_log_path = flags.GetString("access-log", "");

  // The generator fixes the dataset's feature spec and class count; with
  // --input the graphs are replaced but the spec (and thus the model
  // architecture) still comes from --dataset.
  Rng rng(seed);
  GraphDataset dataset = MakeDatasetByName(dataset_name, pool_graphs, &rng);
  if (input == "-") {
    dataset.graphs = ReadGraphsFromStream(&std::cin);
  } else if (!input.empty()) {
    StatusOr<GraphDataset> loaded = LoadDataset(input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "loading %s: %s\n", input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset.graphs = loaded.value().graphs;
  }
  if (dataset.graphs.empty()) {
    std::fprintf(stderr, "no graphs to replay\n");
    return 1;
  }
  std::vector<PreparedGraph> prepared = PrepareDataset(dataset);

  serve::ServedModelConfig model_config;
  model_config.method = flags.GetString("method", "HAP");
  model_config.feature_dim = dataset.feature_spec.FeatureDim();
  model_config.hidden = FlagValueOrDie(flags.GetInt("hidden", 32));
  model_config.num_classes = dataset.num_classes;
  const std::string mode_text = flags.GetString("coarsen-mode", "dense");
  if (!ParseCoarsenMode(mode_text, &model_config.coarsen_mode)) {
    std::fprintf(stderr, "unknown --coarsen-mode '%s' (dense|topk|auto)\n%s",
                 mode_text.c_str(), kUsage);
    return 2;
  }
  model_config.topk = FlagValueOrDie(flags.GetInt("topk", 0, 1));
  // The engine runs every batch at the precision the model is loaded
  // at, with the scales prepared here.
  const std::string precision_text = flags.GetString("precision", "fp32");
  if (!ParsePrecision(precision_text, &model_config.precision)) {
    std::fprintf(stderr, "unknown --precision '%s' (fp32|int8)\n%s",
                 precision_text.c_str(), kUsage);
    return 2;
  }
  if (model_config.precision == Precision::kInt8) {
    // Calibrate activation absmax on a small slice of the replay pool
    // when the checkpoint carries no scales of its own.
    const size_t sample = std::min<size_t>(prepared.size(), 8);
    model_config.calibration_graphs.assign(prepared.begin(),
                                           prepared.begin() + sample);
  }
  model_config.lanes = engine_config.max_batch;

  // The latency report below reads the engine's streaming sketches,
  // which (like all detailed metrics) only record when metrics are on.
  // Metrics never perturb predictions — serve parity is checked with
  // them enabled.
  obs::SetMetricsEnabled(true);

  StatusOr<std::shared_ptr<const serve::ServedModel>> model =
      serve::ServedModel::Load(model_config, checkpoint);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("serving %s (%lld parameters, %d lanes, %s) from %s\n",
              model_config.method.c_str(),
              static_cast<long long>(model.value()->num_parameters()),
              model.value()->lanes(), PrecisionName(model_config.precision),
              checkpoint.c_str());

  serve::InferenceEngine engine(model.value(), engine_config);
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const size_t total = static_cast<size_t>(requests);
  std::vector<std::future<int>> futures(total);
  std::vector<int> predictions(total, -1);
  std::atomic<size_t> submitted{0};

  // A concurrent drain thread reaps each request's completion as it
  // happens, so the replay keeps submitting while earlier batches
  // resolve; per-request latency is measured by the engine itself
  // (serve.latency.ns sketch, admission to future-resolve).
  std::thread drain([&] {
    for (size_t i = 0; i < total; ++i) {
      while (submitted.load(std::memory_order_acquire) <= i) {
        std::this_thread::yield();
      }
      predictions[i] = futures[i].get();
    }
  });

  for (size_t i = 0; i < total; ++i) {
    if (qps > 0) {
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(
                      static_cast<int64_t>(i) * 1000000 / qps));
    }
    const PreparedGraph& graph = prepared[i % prepared.size()];
    while (true) {
      StatusOr<std::future<int>> result = engine.Submit(graph);
      if (result.ok()) {
        futures[i] = std::move(result.value());
        break;
      }
      if (result.status().code() != StatusCode::kResourceExhausted) {
        std::fprintf(stderr, "submit: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      std::this_thread::yield();  // backpressure: retry
    }
    submitted.store(i + 1, std::memory_order_release);
  }
  drain.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  engine.Shutdown();

  const obs::MetricsSnapshot snapshot = obs::SnapshotMetrics();
  double mean_batch = 0.0;
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == obs::names::kServeBatchSize) mean_batch = h.Mean();
  }
  const obs::SketchSnapshot latency =
      obs::SnapshotSketch(obs::names::kServeLatencyNs);
  const obs::SketchSnapshot queue_wait =
      obs::SnapshotSketch(obs::names::kServeQueueWaitNs);
  std::printf("replayed %zu requests over %zu graphs in %.3f s\n", total,
              prepared.size(), wall_s);
  std::printf(
      "throughput %.0f req/s   latency p50 %.3f ms  p99 %.3f ms  "
      "p999 %.3f ms\n",
      static_cast<double>(total) / wall_s, latency.Quantile(0.50) / 1e6,
      latency.Quantile(0.99) / 1e6, latency.Quantile(0.999) / 1e6);
  std::printf("queue wait p50 %.3f ms  p99 %.3f ms\n",
              queue_wait.Quantile(0.50) / 1e6, queue_wait.Quantile(0.99) / 1e6);
  std::printf("mean batch %.2f   coalesced %llu of %llu requests\n",
              mean_batch,
              static_cast<unsigned long long>(
                  obs::CounterValue(obs::names::kServeCoalesced)),
              static_cast<unsigned long long>(
                  obs::CounterValue(obs::names::kServeRequests)));

  const std::string predictions_out = flags.GetString("predictions-out", "");
  if (!predictions_out.empty()) {
    std::ofstream out(predictions_out);
    for (int prediction : predictions) out << prediction << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "writing %s failed\n", predictions_out.c_str());
      return 1;
    }
    std::printf("predictions -> %s\n", predictions_out.c_str());
  }
  return 0;
}
