// hap_served: the network serving daemon (docs/SERVING.md "Network
// front end & SLOs").
//
// Loads a checkpoint into a ModelRegistry, stands an InferenceEngine on
// it, and listens on 127.0.0.1:<port> speaking both the binary framing
// of serve/protocol.h and HTTP/1.1 (POST /predict, GET /metrics,
// GET /healthz, GET /stats, POST /reload). The architecture flags
// (--method/--hidden/--dataset) must match the run that produced the
// checkpoint — shapes are verified at load; POST /reload re-loads the
// same checkpoint path at the next version (a hot-swap: in-flight
// batches finish on the model they started with).
//
// Usage:
//   hap_served --checkpoint path [--dataset mutag|...] [--method HAP]
//              [--hidden N] [--port N] [--port-file path] [--lanes N]
//              [--max-batch N] [--max-delay-us N] [--queue-capacity N]
//              [--shed-queue-depth N] [--slo-p99-ms N]
//              [--default-deadline-ms N] [--cache-capacity N]
//              [--coarsen-mode dense|topk|auto] [--topk K]
//              [--precision fp32|int8] [--max-connections N]
//              [--idle-timeout-ms N] [--access-log path]
//
// --port 0 (the default) asks the kernel for a port; --port-file writes
// the bound port as one line so scripts can discover it. The process
// runs until SIGINT/SIGTERM, then drains and exits 0.
//
// --max-batch, --lanes, --queue-capacity and --cache-capacity must be at
// least 1. The delay, depth, SLO, deadline, connection and idle-timeout
// flags must be at least 0, where 0 means none (no shedding, no SLO, no
// default deadline, no connection cap, no idle timeout). A value out of
// range exits 2 with usage before the checkpoint is read.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "common/flags.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "train/prepared.h"

namespace {

using namespace hap;

constexpr char kUsage[] =
    "usage: hap_served --checkpoint path [--dataset name] [--method name]\n"
    "                  [--hidden N] [--port N] [--port-file path]\n"
    "                  [--lanes N] [--max-batch N] [--max-delay-us N]\n"
    "                  [--queue-capacity N] [--shed-queue-depth N]\n"
    "                  [--slo-p99-ms N] [--default-deadline-ms N]\n"
    "                  [--cache-capacity N]\n"
    "                  [--coarsen-mode dense|topk|auto] [--topk K]\n"
    "                  [--precision fp32|int8] [--max-connections N]\n"
    "                  [--idle-timeout-ms N] [--access-log path]\n";

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

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  StatusOr<Flags> parsed = Flags::Parse(
      argc, argv, 1,
      {"checkpoint", "dataset", "method", "hidden", "port", "port-file",
       "lanes", "max-batch", "max-delay-us", "queue-capacity",
       "shed-queue-depth", "slo-p99-ms", "default-deadline-ms",
       "cache-capacity", "coarsen-mode", "topk", "precision",
       "max-connections", "idle-timeout-ms", "access-log"});
  Flags flags = FlagValueOrDie(parsed);
  const std::string checkpoint = flags.GetString("checkpoint", "");
  if (checkpoint.empty()) {
    std::fprintf(stderr, "--checkpoint is required\n%s", kUsage);
    return 2;
  }

  // The dataset generator only supplies the feature spec and class
  // count the architecture was trained with; no graphs are generated.
  Rng rng(7);
  GraphDataset dataset =
      MakeDatasetByName(flags.GetString("dataset", "mutag"), 1, &rng);

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

  serve::EngineConfig engine_config;
  engine_config.max_batch =
      FlagValueOrDie(flags.GetInt("max-batch", engine_config.max_batch, 1));
  engine_config.max_delay_us = FlagValueOrDie(flags.GetInt(
      "max-delay-us", static_cast<int>(engine_config.max_delay_us), 0));
  engine_config.queue_capacity = static_cast<size_t>(FlagValueOrDie(
      flags.GetInt("queue-capacity",
                   static_cast<int>(engine_config.queue_capacity), 1)));
  engine_config.default_deadline_us =
      int64_t{1000} *
      FlagValueOrDie(flags.GetInt("default-deadline-ms", 0, 0));
  engine_config.access_log_path = flags.GetString("access-log", "");
  model_config.lanes =
      FlagValueOrDie(flags.GetInt("lanes", engine_config.max_batch, 1));

  serve::ServerConfig server_config;
  server_config.port = FlagValueOrDie(flags.GetInt("port", 0));
  server_config.cache_capacity = static_cast<size_t>(
      FlagValueOrDie(flags.GetInt("cache-capacity", 256, 1)));
  server_config.admission.shed_queue_depth = static_cast<size_t>(
      FlagValueOrDie(flags.GetInt("shed-queue-depth", 0, 0)));
  server_config.admission.slo_p99_ns =
      1'000'000ull *
      static_cast<uint64_t>(FlagValueOrDie(flags.GetInt("slo-p99-ms", 0, 0)));
  server_config.max_connections = static_cast<size_t>(
      FlagValueOrDie(flags.GetInt("max-connections", 0, 0)));
  server_config.idle_timeout_ms =
      FlagValueOrDie(flags.GetInt("idle-timeout-ms", 0, 0));

  if (model_config.precision == Precision::kInt8) {
    // The checkpoint may carry its own scales (v2); otherwise calibrate
    // on a generated sample from the architecture's dataset family.
    GraphDataset sample =
        MakeDatasetByName(flags.GetString("dataset", "mutag"), 8, &rng);
    model_config.calibration_graphs = PrepareDataset(sample);
  }

  // Admission shedding and the /stats quantiles both read the
  // serve.latency.ns sketch, which records only when metrics are on.
  obs::SetMetricsEnabled(true);

  serve::ModelRegistry registry;
  const std::string model_name = "model";
  Status published =
      registry.Reload(model_name, /*version=*/1, model_config, checkpoint);
  if (!published.ok()) {
    std::fprintf(stderr, "%s\n", published.ToString().c_str());
    return 1;
  }
  serve::InferenceEngine engine(&registry, model_name, engine_config);

  // POST /reload: re-load the checkpoint at the next version. The
  // version counter lives in the closure; concurrent reloads serialise
  // inside the registry.
  auto next_version = std::make_shared<std::atomic<int>>(2);
  server_config.reload_handler = [&registry, model_name, model_config,
                                  checkpoint, next_version]() {
    return registry.Reload(model_name,
                           next_version->fetch_add(1,
                                                   std::memory_order_relaxed),
                           model_config, checkpoint);
  };

  serve::Server server(&engine, dataset.feature_spec, server_config);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("hap_served: %s (%d lanes, %s) on 127.0.0.1:%d\n",
              model_config.method.c_str(), model_config.lanes,
              PrecisionName(model_config.precision), server.port());
  std::fflush(stdout);

  const std::string port_file = flags.GetString("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "writing %s failed\n", port_file.c_str());
      return 1;
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("hap_served: draining\n");
  server.Stop();
  engine.Shutdown();
  return 0;
}
