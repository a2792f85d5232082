// serve_replay: hap_served's request path replayed in this process, one
// request at a time, on a stream drawn uniformly from 4096 distinct
// graphs: decode the binary frame, parse the graph text, admit, look the
// graph up in the 256-entry graph cache (featurize and warm caches on a
// miss), run the HAP forward on a model lane, encode the answer. About 94% of requests
// miss the cache, so each pays for parsing, featurizing and a full
// forward: this is where graph, core and tensor do the work.
//
// The replay leaves out the event loop, the engine's queue and the
// batcher threads on purpose: driven over loopback, this machine's
// varying share of its CPUs moved hap_served's throughput by up to 3x
// between runs, far beyond any bound a later change could be judged by.
// The traced run still drives the built daemon over loopback for the
// layers only it has (serve_daemon.cc).
#include <algorithm>
#include <memory>
#include <sstream>

#include "graph/datasets.h"
#include "graph/io.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "pace.h"
#include "serve.h"
#include "serve/admission.h"
#include "serve/graph_cache.h"
#include "serve/protocol.h"
#include "stats.h"
#include "tensor/serialize.h"
#include "train/classifier.h"
#include "train/model_zoo.h"
#include "train/prepared.h"

namespace perfbench {
namespace {

namespace names = hap::obs::names;
using hap::serve::FrameType;
using hap::serve::WireHeader;

// The served checkpoint: a 5-epoch training run on 200 PROTEINS-like
// graphs. It predicts both classes (an untrained or MUTAG-like checkpoint
// predicts one class for every request, which would make the prediction
// check vacuous). Like a deployed model it is the same in every run and
// only the traffic follows the run seed: trained from the run seed, some
// seeds gave a model that answered one class for 99.8% of the pool.
constexpr int kCheckpointGraphs = 200;
constexpr int kCheckpointEpochs = 5;
constexpr uint64_t kCheckpointSeed = 0;
// Set-up (model load, cache, admission, and a fixed warm-up set of
// requests) is repeated and reported as a median: a load alone takes a
// few milliseconds, mostly jitter.
constexpr int kSetups = 5;
constexpr int kWarmupRequests = 1024;
// Traced run: distinct graphs kept for the PredictBatched and gnn/core
// replays.
constexpr size_t kReplayGraphs = 256;

hap::Graph ParsePayload(const std::string& payload) {
  std::istringstream text(payload);
  hap::StatusOr<hap::Graph> graph = hap::ReadGraph(&text);
  Require(graph.ok(), "payload parses", graph.status().ToString());
  return std::move(graph).value();
}

std::string RequestFrame(const std::string& payload) {
  WireHeader header;
  header.payload_len = static_cast<uint32_t>(payload.size());
  std::string frame(hap::serve::kWireHeaderSize, '\0');
  hap::serve::EncodeWireHeader(header,
                               reinterpret_cast<uint8_t*>(frame.data()));
  return frame + payload;
}

// The layers a kPredict frame passes in hap_served, called in order on
// this thread.
class ServingStack {
 public:
  explicit ServingStack(const ServeInputs& in)
      : model_(LoadServed(in, kServedLanes)),
        cache_(kCacheCapacity, in.spec),
        admission_(DefaultAdmission()) {}

  // Answers one request frame; returns the predicted class, or -1 when
  // admission sheds it. Spans (when `spans` records) wrap each layer.
  int Answer(const std::string& frame, uint64_t id, SpanRecorder* spans,
             std::shared_ptr<const hap::PreparedGraph>* prepared_out) {
    ScopedSpan request(spans, "replay.request", -1, id);
    const int parent = request.index();
    WireHeader header;
    {
      ScopedSpan s(spans, "protocol.DecodeWireHeader", parent, id);
      hap::StatusOr<WireHeader> decoded = hap::serve::DecodeWireHeader(
          reinterpret_cast<const uint8_t*>(frame.data()));
      Require(decoded.ok(), "request frame decodes",
              decoded.status().ToString());
      header = decoded.value();
    }
    hap::Graph graph;
    {
      ScopedSpan s(spans, "server.ReadGraph", parent, id);
      graph = ParsePayload(
          frame.substr(hap::serve::kWireHeaderSize, header.payload_len));
    }
    {
      ScopedSpan s(spans, "admission.Admit", parent, id);
      if (!admission_.Admit(0).ok()) return -1;
    }
    if (spans->enabled()) {
      ScopedSpan s(spans, "graph_cache.CanonicalKey", parent, id);
      Require(!hap::serve::GraphCache::CanonicalKey(graph).empty(),
              "graph cache key", "empty key");
    }
    const uint64_t misses =
        spans->enabled() ? hap::obs::CounterValue(names::kServeCacheMiss) : 0;
    const uint64_t t0 = hap::obs::MonotonicNs();
    std::shared_ptr<const hap::PreparedGraph> prepared = cache_.Prepare(graph);
    if (spans->enabled()) {
      const bool miss =
          hap::obs::CounterValue(names::kServeCacheMiss) != misses;
      spans->Add(miss ? "graph_cache.Prepare.miss" : "graph_cache.Prepare.hit",
                 t0, hap::obs::MonotonicNs(), parent, id, 0);
    }
    int predicted = -1;
    {
      ScopedSpan s(spans, "served_model.Predict", parent, id);
      hap::Status valid = model_->ValidateRequest(*prepared);
      Require(valid.ok(), "request graph is valid", valid.ToString());
      predicted = model_->Predict(
          *prepared, static_cast<int>(id % static_cast<uint64_t>(kServedLanes)));
    }
    {
      ScopedSpan s(spans, "protocol.EncodeWireHeader", parent, id);
      WireHeader answer;
      answer.type = FrameType::kPredictOk;
      answer.payload_len = 4;
      answer.ticket = header.ticket;
      uint8_t out[hap::serve::kWireHeaderSize];
      hap::serve::EncodeWireHeader(answer, out);
      Require(out[0] == hap::serve::kWireMagicByte, "answer frame encodes",
              "bad magic");
    }
    if (prepared_out != nullptr) *prepared_out = std::move(prepared);
    return predicted;
  }

  const hap::serve::ServedModel& model() const { return *model_; }

 private:
  static hap::serve::AdmissionConfig DefaultAdmission() {
    // hap_served's default: shed at the engine's queue capacity.
    hap::serve::AdmissionConfig config;
    config.shed_queue_depth = 1024;
    return config;
  }

  std::shared_ptr<const hap::serve::ServedModel> model_;
  hap::serve::GraphCache cache_;
  hap::serve::AdmissionController admission_;
};

// Traced run: PredictBatched over chunks of 16 distinct graphs, and the
// gnn/core layers on the same graphs.
void ReplayModelLayers(
    const ServeInputs& in, const hap::serve::ServedModel& served,
    const std::vector<std::shared_ptr<const hap::PreparedGraph>>& graphs,
    const std::vector<int>& ids, SpanRecorder* spans, Report* report) {
  for (size_t lo = 0; lo < graphs.size(); lo += kServedLanes) {
    const size_t hi = std::min(graphs.size(), lo + kServedLanes);
    std::vector<hap::PreparedGraph> chunk;
    for (size_t g = lo; g < hi; ++g) chunk.push_back(*graphs[g]);
    std::vector<int> predicted;
    {
      ScopedSpan s(spans, "served_model.PredictBatched", -1, lo);
      predicted = served.PredictBatched(chunk, 0);
    }
    for (size_t g = lo; g < hi; ++g) {
      Require(predicted[g - lo] == in.reference[ids[g]],
              "batched prediction equals the reference",
              "graph " + std::to_string(ids[g]));
    }
  }
  report->Set("served_model.predict_batched_us",
              spans->TotalUs("served_model.PredictBatched",
                             static_cast<double>(graphs.size())));

  hap::Rng rng(MixSeed(0, 4));
  hap::GraphClassifier classifier(
      hap::MakeEmbedderByName("HAP", in.spec.FeatureDim(), kHidden, &rng),
      in.num_classes, kHidden, &rng);
  hap::Status loaded = hap::LoadModule(&classifier, in.checkpoint);
  Require(loaded.ok(), "checkpoint loads", loaded.ToString());
  classifier.set_training(false);
  std::vector<std::pair<hap::Tensor, hap::GraphLevel>> inputs;
  for (const auto& g : graphs) inputs.emplace_back(g->h, g->level);
  ReplayCoreLayers(
      dynamic_cast<const hap::HierarchicalEmbedder&>(classifier.embedder()),
      in.spec.FeatureDim(), inputs, 1, /*embed_levels=*/true, spans, report);
}

}  // namespace

std::shared_ptr<const hap::serve::ServedModel> LoadServed(
    const ServeInputs& in, int lanes) {
  hap::serve::ServedModelConfig config;
  config.method = "HAP";
  config.feature_dim = in.spec.FeatureDim();
  config.hidden = kHidden;
  config.num_classes = in.num_classes;
  config.lanes = lanes;
  auto loaded = hap::serve::ServedModel::Load(config, in.checkpoint);
  Require(loaded.ok(), "checkpoint loads", loaded.status().ToString());
  return loaded.value();
}

ServeInputs MakeServeInputs(const RunConfig& config) {
  ServeInputs in;
  hap::Rng pool_rng(MixSeed(config.seed, 1));
  hap::GraphDataset pool = hap::MakeProteinsLike(kPoolGraphs, &pool_rng);
  in.spec = pool.feature_spec;
  in.num_classes = pool.num_classes;
  for (const hap::Graph& g : pool.graphs) {
    std::ostringstream text;
    hap::WriteGraph(g, &text);
    in.payloads.push_back(text.str());
  }

  hap::Rng train_rng(MixSeed(kCheckpointSeed, 2));
  hap::GraphDataset train =
      hap::MakeProteinsLike(kCheckpointGraphs, &train_rng);
  std::vector<hap::PreparedGraph> data = hap::PrepareDataset(train);
  hap::Split split = hap::SplitIndices(kCheckpointGraphs, &train_rng);
  hap::GraphClassifier model(
      hap::MakeEmbedderByName("HAP", in.spec.FeatureDim(), kHidden,
                              &train_rng),
      in.num_classes, kHidden, &train_rng);
  hap::TrainConfig train_config;
  train_config.epochs = kCheckpointEpochs;
  train_config.patience = 0;
  train_config.seed = MixSeed(kCheckpointSeed, 3);
  hap::TrainClassifier(&model, data, split, train_config);
  in.checkpoint = config.work_dir + "/serve.ckpt";
  hap::Status saved = hap::SaveModule(model, in.checkpoint);
  Require(saved.ok(), "checkpoint saves", saved.ToString());

  auto served = LoadServed(in, 1);
  for (const std::string& payload : in.payloads) {
    in.reference.push_back(
        served->Predict(hap::PrepareGraph(ParsePayload(payload), in.spec), 0));
  }
  return in;
}

void RunServeReplay(const RunConfig& config, Report* report,
                    SpanRecorder* spans) {
  const ServeInputs in = MakeServeInputs(config);
  std::vector<std::string> frames;
  for (const std::string& payload : in.payloads) {
    frames.push_back(RequestFrame(payload));
  }
  SpanRecorder no_spans(false);

  // The run's times are turned into reference seconds at its end
  // (pace.h).
  Pace pace;
  std::unique_ptr<ServingStack> stack;
  Intervals setups;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    pace.Sampled(&setups, [&] {
      ScopedSpan setup(spans, "serve.setup", -1, k);
      {
        ScopedSpan s(spans, "served_model.Load", setup.index(), k);
        stack = std::make_unique<ServingStack>(in);
      }
      RequestStream warmup(MixSeed(config.seed, 10));
      for (int i = 0; i < kWarmupRequests; ++i) {
        const int graph = warmup.Next();
        Require(stack->Answer(frames[graph], i, &no_spans, nullptr) ==
                    in.reference[graph],
                "each prediction equals ServedModel::Predict",
                "warm-up graph " + std::to_string(graph));
      }
    });
  }

  // Timed requests. The traced run's second half runs with the program's
  // metrics on and spans around every layer call.
  RequestStream stream(MixSeed(config.seed, 20));
  const double start = NowS();
  const double end = start + config.seconds;
  const double half = start + config.seconds / 2;
  PerSecond latency_ms[2] = {PerSecond(start), PerSecond(half)};  // untraced, traced
  int64_t answered[2] = {0, 0};
  double traced_s = 0.0;
  int64_t shed = 0;
  unsigned classes = 0;
  std::vector<std::shared_ptr<const hap::PreparedGraph>> distinct;
  std::vector<int> distinct_ids;
  std::vector<bool> seen(kPoolGraphs, false);
  Scrape before;
  bool tracing = false;
  for (uint64_t id = 0; NowS() < end; ++id) {
    pace.MaybeProbe();
    if (config.trace && !tracing && NowS() >= half) {
      hap::obs::SetMetricsEnabled(true);
      before = ScrapeSelf();
      tracing = true;
    }
    const int graph = stream.Next();
    std::shared_ptr<const hap::PreparedGraph> prepared;
    const double t0 = NowS();
    const int predicted = stack->Answer(frames[graph], id,
                                        tracing ? spans : &no_spans,
                                        tracing ? &prepared : nullptr);
    const double t1 = NowS();
    if (predicted < 0) {
      ++shed;
      continue;
    }
    Require(predicted == in.reference[graph],
            "each prediction equals ServedModel::Predict",
            "graph " + std::to_string(graph));
    classes |= 1u << in.reference[graph];
    latency_ms[tracing ? 1 : 0].Add(t1, (t1 - t0) * 1e3);
    ++answered[tracing ? 1 : 0];
    if (tracing) traced_s += t1 - t0;
    if (tracing && !seen[graph] && distinct.size() < kReplayGraphs) {
      seen[graph] = true;
      distinct.push_back(std::move(prepared));
      distinct_ids.push_back(graph);
    }
  }
  latency_ms[0].Finish(config.trace ? half : end);
  latency_ms[1].Finish(end);
  Window window;
  if (tracing) {
    window = Window(before, ScrapeSelf());
    hap::obs::SetMetricsEnabled(false);
  }
  Require(classes == 3u,
          "reference predictions over the stream contain both classes",
          "class mask " + std::to_string(classes));
  report->attempted = answered[0] + answered[1] + shed;
  report->failed = shed;
  for (PerSecond& seconds : latency_ms) {
    seconds.Scale([&](double from_s, double to_s) {
      return pace.Factor(from_s, to_s);
    });
  }
  const double untraced_per_s = latency_ms[0].MedianRate(1e-3);

  if (!config.trace) {
    report->Set("setup_s", Median(setups.Scaled(pace)));
    report->Set("throughput_per_s", untraced_per_s);
    for (const auto& [name, q] :
         {std::pair{"latency_p50_ms", 0.5}, std::pair{"latency_p90_ms", 0.9}}) {
      hap::StatusOr<double> v = latency_ms[0].MedianQuantile(q);
      Require(v.ok(), "latency percentile sample floor", v.status().ToString());
      report->Set(name, v.value());
    }
    hap::StatusOr<double> rss = ReadVmHwmMb(0);
    Require(rss.ok(), "benchmark VmHWM", rss.status().ToString());
    report->Set("peak_rss_mb", rss.value());
    report->Set("ok_share",
                Ratio(static_cast<double>(answered[0] + answered[1]),
                      static_cast<double>(report->attempted)));
    PrintPace(pace);
    return;
  }

  const auto traced = static_cast<double>(answered[1]);
  report->Set("obs.trace_overhead_share",
              TraceOverhead(latency_ms[1].MedianRate(1e-3), untraced_per_s));
  report->Set("server.parse_us", spans->TotalUs("server.ReadGraph", traced));
  report->Set("graph_cache.key_us",
              spans->TotalUs("graph_cache.CanonicalKey", traced));
  const auto misses = static_cast<double>(
      spans->DurationsNs("graph_cache.Prepare.miss").size());
  report->Set("graph_cache.miss_prepare_us",
              spans->TotalUs("graph_cache.Prepare.miss", misses));
  const double hit = window.Counter(names::kServeCacheHit);
  report->Set("graph_cache.hit_share",
              Ratio(hit, hit + window.Counter(names::kServeCacheMiss)));
  report->Set("served_model.load_ms",
              Median(spans->DurationsNs("served_model.Load")) / 1e6);
  report->Set("served_model.predict_us",
              spans->TotalUs("served_model.Predict", traced));
  SetCounterLayers(window, traced_s, traced, report);
  ReplayModelLayers(in, stack->model(), distinct, distinct_ids, spans, report);
  DriveDaemon(config, in, spans, report);
  SetUnreached(report, {"graph.level_warm_ms", "graph.prepare_dataset_ms",
                        "train.forward_ms", "train.backward_ms",
                        "train.adam_ms", "train.eval_ms"});
}

}  // namespace perfbench
