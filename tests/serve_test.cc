#include "serve/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "graph/generators.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/registry.h"
#include "serve/request_queue.h"
#include "serve/served_model.h"
#include "tensor/matmul_kernels.h"
#include "tensor/serialize.h"
#include "train/model_zoo.h"

namespace hap::serve {
namespace {

/// A tiny untrained classifier checkpoint (weights are random but fixed
/// by `seed`; serving only needs determinism, not accuracy).
std::string WriteCheckpoint(const ServedModelConfig& config,
                            const std::string& filename, uint64_t seed) {
  Rng rng(seed);
  GraphClassifier model(MakeEmbedderByName(config.method, config.feature_dim,
                                           config.hidden, &rng),
                        config.num_classes, config.hidden, &rng);
  const std::string path = ::testing::TempDir() + "/" + filename;
  EXPECT_TRUE(SaveModule(model, path).ok());
  return path;
}

struct ServeFixture {
  ServedModelConfig config;
  GraphDataset dataset;
  std::vector<PreparedGraph> prepared;
  std::string checkpoint;
  std::shared_ptr<const ServedModel> model;
  std::vector<int> direct;  // model's own single-graph predictions

  explicit ServeFixture(int lanes = 4, uint64_t weight_seed = 21,
                        const std::string& method = "HAP") {
    Rng rng(3);
    dataset = MakeMutagLike(24, &rng);
    prepared = PrepareDataset(dataset);
    config.method = method;
    config.feature_dim = dataset.feature_spec.FeatureDim();
    config.hidden = 8;
    config.num_classes = dataset.num_classes;
    config.lanes = lanes;
    checkpoint = WriteCheckpoint(config, "serve_fixture.bin", weight_seed);
    model = ServedModel::Load(config, checkpoint).value();
    for (const PreparedGraph& g : prepared) {
      direct.push_back(model->Predict(g, 0));
    }
  }
};

TEST(ServedModelTest, LoadRejectsBadInputs) {
  ServeFixture fx;
  ServedModelConfig bad = fx.config;
  bad.method = "NoSuchMethod";
  EXPECT_FALSE(ServedModel::Load(bad, fx.checkpoint).ok());
  EXPECT_EQ(ServedModel::Load(fx.config, "/nonexistent/ckpt.bin")
                .status()
                .code(),
            StatusCode::kNotFound);
  // Architecture mismatch: the checkpoint's shapes do not fit.
  ServedModelConfig wider = fx.config;
  wider.hidden = 16;
  EXPECT_FALSE(ServedModel::Load(wider, fx.checkpoint).ok());
}

TEST(ServeEngineTest, PredictionsMatchDirectForwardAtAnyThreadCount) {
  ServeFixture fx;
  for (int threads : {1, 2}) {
    SetNumThreads(threads);
    InferenceEngine engine(fx.model, EngineConfig{});
    std::vector<std::future<int>> futures;
    for (const PreparedGraph& g : fx.prepared) {
      StatusOr<std::future<int>> result = engine.Submit(g);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      futures.push_back(std::move(result.value()));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get(), fx.direct[i]) << "graph " << i;
    }
  }
  SetNumThreads(1);
}

// int8 calibration records a weight only if some product with it can
// dispatch int8 (kernels::WeightShapeAdmitsInt8: at least 16 rows and 8
// columns). At hidden 32 that leaves five weights per HAP model: the first
// encoder weight (F < 16 rows), the level-2 T (one column), the classifier
// output (num_classes columns), MOA's a₁/a₂ and GAT's attention vectors
// are never recorded.
TEST(ServedModelTest, Int8CalibrationRecordsOnlyEligibleWeights) {
  for (const char* method : {"HAP", "HAP-GAT"}) {
    for (const bool proteins : {false, true}) {
      SCOPED_TRACE(std::string(method) + (proteins ? " proteins" : " mutag"));
      Rng rng(5);
      GraphDataset dataset =
          proteins ? MakeProteinsLike(8, &rng) : MakeMutagLike(8, &rng);
      ServedModelConfig config;
      config.method = method;
      config.feature_dim = dataset.feature_spec.FeatureDim();
      config.hidden = 32;
      config.num_classes = dataset.num_classes;
      config.lanes = 1;
      const std::string checkpoint =
          WriteCheckpoint(config, "serve_calibration.bin", 9);
      config.precision = Precision::kInt8;
      config.calibration_graphs = PrepareDataset(dataset);
      std::shared_ptr<const ServedModel> model =
          ServedModel::Load(config, checkpoint).value();

      Rng init(9);
      const std::vector<Tensor> params =
          GraphClassifier(MakeEmbedderByName(method, config.feature_dim,
                                             config.hidden, &init),
                          config.num_classes, config.hidden, &init)
              .Parameters();
      std::vector<uint32_t> eligible, recorded;
      for (size_t i = 0; i < params.size(); ++i) {
        if (kernels::WeightShapeAdmitsInt8(params[i].rows(),
                                           params[i].cols())) {
          eligible.push_back(static_cast<uint32_t>(i));
        }
      }
      for (const QuantScaleEntry& entry : model->scale_entries()) {
        recorded.push_back(entry.param_index);
      }
      EXPECT_EQ(eligible.size(), 5u);
      EXPECT_EQ(recorded, eligible);
    }
  }
}

// The engine runs each batch at the precision its model was loaded at;
// nothing on EngineConfig selects it. Every batch takes the batched path,
// whose GEMMs at hidden 32 on PROTEINS-sized graphs are int8-eligible.
TEST(ServeEngineTest, RunsAtTheLoadedModelsPrecision) {
  Rng rng(5);
  GraphDataset dataset = MakeProteinsLike(8, &rng);
  std::vector<PreparedGraph> prepared = PrepareDataset(dataset);
  ServedModelConfig config;
  config.method = "HAP";
  config.feature_dim = dataset.feature_spec.FeatureDim();
  config.hidden = 32;
  config.num_classes = dataset.num_classes;
  config.lanes = 2;
  const std::string checkpoint =
      WriteCheckpoint(config, "serve_precision.bin", 9);
  obs::HotCountersHold hot_counters;
  for (Precision precision : {Precision::kFp32, Precision::kInt8}) {
    ServedModelConfig loaded = config;
    loaded.precision = precision;
    if (precision == Precision::kInt8) loaded.calibration_graphs = prepared;
    std::shared_ptr<const ServedModel> model =
        ServedModel::Load(loaded, checkpoint).value();
    InferenceEngine engine(model, EngineConfig{});
    const uint64_t before =
        obs::CounterValue(obs::names::kMatMulDispatchInt8);
    for (const PreparedGraph& g : prepared) {
      StatusOr<std::future<int>> result = engine.Submit(g);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      result.value().get();
    }
    const uint64_t int8_matmuls =
        obs::CounterValue(obs::names::kMatMulDispatchInt8) - before;
    if (precision == Precision::kInt8) {
      EXPECT_GT(int8_matmuls, 0u);
    } else {
      EXPECT_EQ(int8_matmuls, 0u);
    }
  }
}

TEST(ServeEngineTest, RejectsMalformedGraphs) {
  ServeFixture fx;
  InferenceEngine engine(fx.model, EngineConfig{});
  // Undefined tensors (default-constructed request).
  PreparedGraph empty;
  EXPECT_EQ(engine.Submit(empty).status().code(),
            StatusCode::kInvalidArgument);
  // Wrong feature width.
  PreparedGraph narrow;
  narrow.h = Tensor::Zeros(3, fx.config.feature_dim + 1);
  narrow.adjacency = Tensor::Zeros(3, 3);
  narrow.level = GraphLevel(narrow.adjacency);
  EXPECT_EQ(engine.Submit(narrow).status().code(),
            StatusCode::kInvalidArgument);
  // Non-square adjacency (level left default: the engine must reject the
  // request before any kernel ever sees it).
  PreparedGraph skewed;
  skewed.h = Tensor::Zeros(3, fx.config.feature_dim);
  skewed.adjacency = Tensor::Zeros(3, 2);
  EXPECT_EQ(engine.Submit(skewed).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeEngineTest, ServesGraphWithIsolatedNodeEndToEnd) {
  // Degenerate-input regression (gumbel hardening): a node with no edges
  // must flow through the whole serving path and produce a valid class.
  ServeFixture fx;
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);  // node 4 stays isolated
  g.set_label(0);
  PreparedGraph prepared = PrepareGraph(g, fx.dataset.feature_spec);
  InferenceEngine engine(fx.model, EngineConfig{});
  StatusOr<std::future<int>> result = engine.Submit(prepared);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const int prediction = result.value().get();
  EXPECT_GE(prediction, 0);
  EXPECT_LT(prediction, fx.config.num_classes);
  EXPECT_EQ(prediction, fx.model->Predict(prepared, 0));
}

TEST(ServeEngineTest, CoalescesDuplicateGraphsWithinBatch) {
  ServeFixture fx;
  const uint64_t coalesced_before =
      obs::CounterValue(obs::names::kServeCoalesced);
  InferenceEngine engine(fx.model, EngineConfig{});
  // Many copies of one prepared graph: shared tensor handles make the
  // duplicates identical by pointer, so each micro-batch computes once.
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    StatusOr<std::future<int>> result = engine.Submit(fx.prepared[0]);
    ASSERT_TRUE(result.ok());
    futures.push_back(std::move(result.value()));
  }
  for (std::future<int>& f : futures) EXPECT_EQ(f.get(), fx.direct[0]);
  engine.Shutdown();
  EXPECT_GT(obs::CounterValue(obs::names::kServeCoalesced),
            coalesced_before);
}

TEST(ServeEngineTest, BatchedDistinctGraphsMatchPerGraphForwards) {
  // The serving half of the batching contract (docs/BATCHING.md): a
  // micro-batch of DISTINCT graphs run as batched lane chunks must
  // predict exactly what per-graph forwards predict.
  ServeFixture fx(/*lanes=*/2);
  const uint64_t batched_before =
      obs::CounterValue(obs::names::kServeBatchedForwards);
  EngineConfig config;
  config.max_batch = 16;
  InferenceEngine engine(fx.model, config);
  std::vector<std::future<int>> futures;
  for (const PreparedGraph& g : fx.prepared) {
    StatusOr<std::future<int>> result = engine.Submit(g);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    futures.push_back(std::move(result.value()));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), fx.direct[i]) << "graph " << i;
  }
  EXPECT_GT(obs::CounterValue(obs::names::kServeBatchedForwards),
            batched_before);
}

TEST(ServeEngineTest, ArchitecturesWithoutBatchedMirrorServePerGraph) {
  // MeanAttPool's attention readout and SAGPool's coarsener have no
  // batched mirror: PredictBatched runs each lane chunk graph by graph,
  // and no batched forward is counted.
  for (const char* method : {"MeanAttPool", "SAGPool"}) {
    ServeFixture fx(/*lanes=*/2, /*weight_seed=*/21, method);
    const uint64_t batched_before =
        obs::CounterValue(obs::names::kServeBatchedForwards);
    EngineConfig config;
    config.max_batch = 16;
    InferenceEngine engine(fx.model, config);
    std::vector<std::future<int>> futures;
    for (const PreparedGraph& g : fx.prepared) {
      StatusOr<std::future<int>> result = engine.Submit(g);
      ASSERT_TRUE(result.ok()) << method << ": " << result.status().ToString();
      futures.push_back(std::move(result.value()));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get(), fx.direct[i])
          << method << ", graph " << i;
    }
    engine.Shutdown();
    EXPECT_EQ(obs::CounterValue(obs::names::kServeBatchedForwards),
              batched_before)
        << method;
  }
}

TEST(ServedModelTest, PredictBatchedMatchesPredict) {
  ServeFixture fx(/*lanes=*/1);
  std::vector<int> batched =
      fx.model->PredictBatched(fx.prepared, /*lane=*/0);
  ASSERT_EQ(batched.size(), fx.direct.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], fx.direct[i]) << "graph " << i;
  }
}

TEST(ServeEngineTest, ShutdownDrainsThenRejectsNewWork) {
  ServeFixture fx;
  EngineConfig config;
  config.max_delay_us = 50000;  // force batching to lag behind submission
  InferenceEngine engine(fx.model, config);
  std::vector<std::future<int>> futures;
  for (const PreparedGraph& g : fx.prepared) {
    futures.push_back(std::move(engine.Submit(g).value()));
  }
  engine.Shutdown();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), fx.direct[i]);
  }
  EXPECT_EQ(engine.Submit(fx.prepared[0]).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(RequestQueueTest, BackpressureAndCloseSemantics) {
  RequestQueue queue(2);
  auto make_request = [] {
    Request r;
    r.graph.h = Tensor::Zeros(1, 1);
    return r;
  };
  EXPECT_TRUE(queue.Push(make_request()).ok());
  EXPECT_TRUE(queue.Push(make_request()).ok());
  EXPECT_EQ(queue.Push(make_request()).code(),
            StatusCode::kResourceExhausted);

  std::vector<Request> batch = queue.PopBatch(8, 0);
  EXPECT_EQ(batch.size(), 2u);

  EXPECT_TRUE(queue.Push(make_request()).ok());
  queue.Close();
  EXPECT_EQ(queue.Push(make_request()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(queue.PopBatch(8, 0).size(), 1u);  // drains after close
  EXPECT_TRUE(queue.PopBatch(8, 0).empty());   // closed and empty
}

TEST(RequestQueueTest, PopBatchHonoursMaxBatch) {
  RequestQueue queue(16);
  for (int i = 0; i < 10; ++i) {
    Request r;
    r.graph.h = Tensor::Zeros(1, 1);
    ASSERT_TRUE(queue.Push(std::move(r)).ok());
  }
  EXPECT_EQ(queue.PopBatch(4, 0).size(), 4u);
  EXPECT_EQ(queue.PopBatch(4, 0).size(), 4u);
  EXPECT_EQ(queue.PopBatch(4, 1000).size(), 2u);
}

TEST(ModelRegistryTest, VersioningAndRemoval) {
  ServeFixture fx;
  ModelRegistry registry;
  auto v2 = ServedModel::Load(
      fx.config, WriteCheckpoint(fx.config, "serve_v2.bin", 99));
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(registry.Get("hap").ok());
  ASSERT_TRUE(registry.Publish("hap", 1, fx.model).ok());
  ASSERT_TRUE(registry.Publish("hap", 2, v2.value()).ok());
  EXPECT_EQ(registry.Get("hap").value(), v2.value());      // latest wins
  EXPECT_EQ(registry.Get("hap", 1).value(), fx.model);     // pinned
  EXPECT_EQ(registry.Get("hap", 3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.List().size(), 2u);
  ASSERT_TRUE(registry.Remove("hap", 2).ok());
  EXPECT_EQ(registry.Get("hap").value(), fx.model);
  EXPECT_FALSE(registry.Remove("hap", 2).ok());
}

TEST(ModelRegistryTest, FailedReloadKeepsServingOldModel) {
  // Ties the checkpoint hardening to serving: a corrupt checkpoint must
  // be rejected during Reload with the published model left untouched.
  ServeFixture fx;
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("hap", 1, fx.model).ok());

  const std::string corrupt = ::testing::TempDir() + "/serve_corrupt.bin";
  {
    std::ifstream in(fx.checkpoint, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2);  // truncate mid-tensor
    std::ofstream out(corrupt, std::ios::binary);
    out << bytes;
  }
  EXPECT_FALSE(registry.Reload("hap", 1, fx.config, corrupt).ok());
  EXPECT_EQ(registry.Get("hap").value(), fx.model);
  std::remove(corrupt.c_str());
}

TEST(ServeEngineTest, HotSwapUnderConcurrentLoad) {
  // Satellite: N producers submit while the registry hot-swaps between
  // two weight sets. Every future must resolve to the prediction of one
  // of the two models — never a crash, hang, or torn read (the sanitize
  // build in scripts/check.sh runs this under TSan/ASan).
  ServeFixture fx;
  auto other = ServedModel::Load(
      fx.config, WriteCheckpoint(fx.config, "serve_other.bin", 77));
  ASSERT_TRUE(other.ok());
  std::vector<int> other_direct;
  for (const PreparedGraph& g : fx.prepared) {
    other_direct.push_back(other.value()->Predict(g, 0));
  }

  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("hap", 1, fx.model).ok());
  EngineConfig config;
  config.max_batch = 4;
  InferenceEngine engine(&registry, "hap", config);

  constexpr int kProducers = 3;
  constexpr int kPerProducer = 40;
  std::vector<std::vector<std::future<int>>> futures(kProducers);
  std::vector<std::vector<int>> graph_ids(kProducers);
  std::atomic<bool> start{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i) {
        const int g = (p * kPerProducer + i) %
                      static_cast<int>(fx.prepared.size());
        while (true) {
          StatusOr<std::future<int>> result =
              engine.Submit(fx.prepared[g]);
          if (result.ok()) {
            futures[p].push_back(std::move(result.value()));
            graph_ids[p].push_back(g);
            break;
          }
          // Backpressure: retry until admitted.
          ASSERT_EQ(result.status().code(),
                    StatusCode::kResourceExhausted);
          std::this_thread::yield();
        }
      }
    });
  }
  start.store(true);
  for (int swap = 0; swap < 20; ++swap) {
    ASSERT_TRUE(registry
                    .Publish("hap", 1,
                             swap % 2 == 0 ? other.value() : fx.model)
                    .ok());
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  engine.Shutdown();

  for (int p = 0; p < kProducers; ++p) {
    for (size_t i = 0; i < futures[p].size(); ++i) {
      const int g = graph_ids[p][i];
      const int prediction = futures[p][i].get();
      EXPECT_TRUE(prediction == fx.direct[g] ||
                  prediction == other_direct[g])
          << "producer " << p << " graph " << g;
    }
  }
}

TEST(RequestQueueTest, PopBatchAnchorsDelayAtFirstEnqueue) {
  // Regression for the batching-delay accounting bug: the delay window
  // must be anchored at the first batched request's *enqueue*, not the
  // batcher's wake-up. A request that already aged past the whole
  // window in the queue is released immediately; pre-fix, PopBatch
  // re-anchored at wake-up and slept another full max_delay on top.
  RequestQueue queue(8);
  Request request;
  request.graph.h = Tensor::Zeros(1, 1);
  request.enqueue_ns = obs::MonotonicNs();
  ASSERT_TRUE(queue.Push(std::move(request)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  const uint64_t t0 = obs::MonotonicNs();
  std::vector<Request> batch = queue.PopBatch(8, /*max_delay_us=*/200'000);
  const uint64_t elapsed_ms = (obs::MonotonicNs() - t0) / 1'000'000;
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_LT(elapsed_ms, 100u)
      << "partial batch held for a second full delay window";
}

TEST(RequestQueueTest, DeadlineSealsGatherEarly) {
  // A queued deadline caps the gather window: with max_delay at 10 s
  // but the sole request due in 30 ms, the partial batch must release
  // at the deadline, not the delay window.
  RequestQueue queue(8);
  Request request;
  request.graph.h = Tensor::Zeros(1, 1);
  request.enqueue_ns = obs::MonotonicNs();
  request.deadline_ns = request.enqueue_ns + 30'000'000;
  ASSERT_TRUE(queue.Push(std::move(request)).ok());

  const uint64_t t0 = obs::MonotonicNs();
  std::vector<Request> batch =
      queue.PopBatch(8, /*max_delay_us=*/10'000'000);
  const uint64_t elapsed_ms = (obs::MonotonicNs() - t0) / 1'000'000;
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_LT(elapsed_ms, 5000u) << "deadline did not seal the batch early";
}

TEST(ServeEngineTest, SubmitShutdownStressLeavesNoUnresolvedFuture) {
  // Producers race Submit against two concurrent Shutdown calls. Every
  // future a producer obtained must resolve to a prediction — a
  // broken_promise here means a request was admitted and then dropped
  // between the queue and the drain.
  ServeFixture fx;
  for (int round = 0; round < 4; ++round) {
    EngineConfig config;
    config.max_batch = 4;
    config.max_delay_us = 100;
    auto engine = std::make_unique<InferenceEngine>(fx.model, config);
    constexpr int kProducers = 4;
    std::vector<std::vector<std::future<int>>> futures(kProducers);
    std::atomic<bool> start{false};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        while (!start.load()) std::this_thread::yield();
        for (int i = 0; i < 200; ++i) {
          StatusOr<std::future<int>> result =
              engine->Submit(fx.prepared[static_cast<size_t>(i) %
                                         fx.prepared.size()]);
          if (result.ok()) {
            futures[p].push_back(std::move(result.value()));
          } else if (result.status().code() ==
                     StatusCode::kFailedPrecondition) {
            return;  // engine shut down mid-loop — expected
          }
          // ResourceExhausted: backpressure, just keep going.
        }
      });
    }
    start.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(round));
    std::thread closer_a([&] { engine->Shutdown(); });
    std::thread closer_b([&] { engine->Shutdown(); });
    closer_a.join();
    closer_b.join();
    for (std::thread& t : producers) t.join();
    for (auto& per_producer : futures) {
      for (std::future<int>& f : per_producer) {
        EXPECT_NO_THROW(f.get()) << "round " << round;
      }
    }
  }
}

TEST(ServeEngineTest, SkipsForwardsExpiredBeforeDispatch) {
  // A 1 us default deadline guarantees expiry before the batch seals:
  // the lane never computes an answer the client has given up on. The
  // future resolves typed (DEADLINE_EXCEEDED surfaced as an exception)
  // and the skip counter ticks instead of the miss counter.
  ServeFixture fx;
  const uint64_t skipped_before =
      obs::CounterValue(obs::names::kServeDeadlineSkipped);
  EngineConfig config;
  config.default_deadline_us = 1;
  InferenceEngine engine(fx.model, config);
  StatusOr<std::future<int>> result = engine.Submit(fx.prepared[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_THROW(result.value().get(), std::runtime_error);
  EXPECT_GT(obs::CounterValue(obs::names::kServeDeadlineSkipped),
            skipped_before);
}

TEST(ServeEngineTest, CountsMidComputeDeadlineMisses) {
  // The deadline is a quarter of the fastest of three direct forwards of
  // a large graph (20% density keeps it on the dense O(N^2) coarsening
  // path): shorter than any forward of that graph, yet several
  // milliseconds, and longer when other processes slow the host down, so
  // the dispatch-time skip check (a queue pop) passes even while the
  // batcher waits for a core. The prediction still resolves — and must
  // match the direct forward — while the miss counter (the SLO signal)
  // ticks.
  ServeFixture fx;
  Rng rng(17);
  const Graph big = ConnectedErdosRenyi(2500, 0.2, &rng);
  const PreparedGraph prepared = PrepareGraph(big, fx.dataset.feature_spec);
  int direct = -1;
  uint64_t fastest_ns = UINT64_MAX;
  for (int i = 0; i < 3; ++i) {
    const uint64_t start_ns = obs::MonotonicNs();
    direct = fx.model->Predict(prepared, 0);
    fastest_ns = std::min(fastest_ns, obs::MonotonicNs() - start_ns);
  }
  const uint64_t miss_before =
      obs::CounterValue(obs::names::kServeDeadlineMiss);
  EngineConfig config;
  config.default_deadline_us = static_cast<int64_t>(fastest_ns / 4000);
  InferenceEngine engine(fx.model, config);
  StatusOr<std::future<int>> result = engine.Submit(prepared);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().get(), direct);
  EXPECT_GT(obs::CounterValue(obs::names::kServeDeadlineMiss), miss_before);
}

TEST(AdmissionTest, QueueDepthShedsTyped) {
  AdmissionConfig config;
  config.shed_queue_depth = 4;
  AdmissionController admission(config);
  const uint64_t total_before =
      obs::CounterValue(obs::names::kServeShedTotal);
  const uint64_t queue_before =
      obs::CounterValue(obs::names::kServeShedQueueDepth);

  EXPECT_TRUE(admission.Admit(3).ok());
  const Status shed = admission.Admit(4);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(obs::CounterValue(obs::names::kServeShedTotal) - total_before,
            1u);
  EXPECT_EQ(
      obs::CounterValue(obs::names::kServeShedQueueDepth) - queue_before,
      1u);
  // Sheds at the front end never block: the moment the queue drains,
  // admission resumes.
  EXPECT_TRUE(admission.Admit(0).ok());
}

TEST(AdmissionTest, LatencyBreachShedsAndRecovers) {
  AdmissionConfig config;
  config.slo_p99_ns = 1'000'000;   // 1 ms SLO
  config.refresh_window_ns = 1;    // re-scrape on every Admit
  config.min_window_count = 8;
  AdmissionController admission(config);
  // First Admit absorbs whatever earlier tests recorded into the global
  // serve.latency.ns sketch as this controller's baseline.
  (void)admission.Admit(0);

  obs::Sketch* latency = obs::GetSketch(obs::names::kServeLatencyNs);
  for (int i = 0; i < 64; ++i) latency->Record(50'000'000);  // 50 ms
  const Status shed = admission.Admit(0);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(admission.latency_breached());
  EXPECT_GT(obs::CounterValue(obs::names::kServeShedLatency), 0u);

  // The shed window produced no new completions, so the next refresh
  // sees a near-empty delta (below min_window_count) and admission
  // recovers — the built-in overload exit.
  EXPECT_TRUE(admission.Admit(0).ok());
  EXPECT_FALSE(admission.latency_breached());
}

}  // namespace
}  // namespace hap::serve
