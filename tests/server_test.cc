#include "serve/server.h"

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/socket.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "tensor/serialize.h"
#include "train/model_zoo.h"

namespace hap::serve {
namespace {

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

/// Checkpointed model + registry-backed engine + started server.
struct ServerFixture {
  ServedModelConfig config;
  GraphDataset dataset;
  std::vector<PreparedGraph> prepared;
  std::string checkpoint;
  std::shared_ptr<const ServedModel> model;
  std::vector<int> direct;
  ModelRegistry registry;
  std::unique_ptr<InferenceEngine> engine;
  std::unique_ptr<Server> server;

  explicit ServerFixture(EngineConfig engine_config = {},
                         ServerConfig server_config = {}) {
    Rng rng(3);
    dataset = MakeMutagLike(12, &rng);
    prepared = PrepareDataset(dataset);
    config.method = "HAP";
    config.feature_dim = dataset.feature_spec.FeatureDim();
    config.hidden = 8;
    config.num_classes = dataset.num_classes;
    config.lanes = 2;
    checkpoint = WriteCheckpoint(config, "server_fixture.bin", 21);
    model = ServedModel::Load(config, checkpoint).value();
    for (const PreparedGraph& g : prepared) {
      direct.push_back(model->Predict(g, 0));
    }
    EXPECT_TRUE(registry.Publish("model", 1, model).ok());
    engine = std::make_unique<InferenceEngine>(&registry, "model",
                                               engine_config);
    server = std::make_unique<Server>(engine.get(), dataset.feature_spec,
                                      server_config);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~ServerFixture() {
    server->Stop();
    engine->Shutdown();
  }

  std::string GraphText(int i) const {
    std::ostringstream text;
    WriteGraph(dataset.graphs[static_cast<size_t>(i)], &text);
    return text.str();
  }

  int Connect() const {
    StatusOr<int> fd = ConnectLoopback(server->port());
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return fd.value();
  }
};

/// One blocking HTTP round trip; returns the full response (headers +
/// body), reading exactly Content-Length body bytes so keep-alive
/// connections can be reused.
StatusOr<std::string> HttpRoundTrip(int fd, const std::string& request) {
  Status sent = SendAll(fd, request.data(), request.size());
  if (!sent.ok()) return sent;
  std::string response;
  char c = 0;
  while (response.find("\r\n\r\n") == std::string::npos) {
    Status got = RecvAll(fd, &c, 1);
    if (!got.ok()) return got;
    response.push_back(c);
  }
  size_t body_len = 0;
  std::string lowered = response;
  for (char& ch : lowered) ch = static_cast<char>(std::tolower(ch));
  const size_t cl = lowered.find("content-length:");
  if (cl != std::string::npos) {
    body_len = static_cast<size_t>(
        std::strtoull(lowered.c_str() + cl + 15, nullptr, 10));
  }
  const size_t head_len = response.size();
  response.resize(head_len + body_len);
  if (body_len > 0) {
    Status got = RecvAll(fd, &response[head_len], body_len);
    if (!got.ok()) return got;
  }
  return response;
}

std::string Body(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

std::string Get(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: l\r\n\r\n";
}

std::string Post(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: l\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(ServerTest, BinaryPredictPipelinedRoundTrip) {
  ServerFixture fx;
  const int fd = fx.Connect();
  const int n = static_cast<int>(fx.prepared.size());
  // Pipelined: all requests on the wire before any response is read;
  // responses are matched back by ticket, not order.
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(SendPredict(fd, /*ticket=*/static_cast<uint64_t>(i),
                            /*deadline_ms=*/0, fx.GraphText(i))
                    .ok());
  }
  std::map<uint64_t, int> by_ticket;
  std::string payload;
  for (int i = 0; i < n; ++i) {
    StatusOr<WireHeader> header = RecvFrame(fd, &payload);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    ASSERT_EQ(header.value().type, FrameType::kPredictOk);
    StatusOr<int> prediction = DecodePrediction(payload);
    ASSERT_TRUE(prediction.ok());
    by_ticket[header.value().ticket] = prediction.value();
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(by_ticket[static_cast<uint64_t>(i)],
              fx.direct[static_cast<size_t>(i)])
        << "graph " << i;
  }
  CloseFd(fd);
}

TEST(ServerTest, BinaryInvalidGraphGetsTypedError) {
  ServerFixture fx;
  const int fd = fx.Connect();
  ASSERT_TRUE(SendPredict(fd, /*ticket=*/7, 0, "this is not a graph").ok());
  std::string payload;
  StatusOr<WireHeader> header = RecvFrame(fd, &payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type, FrameType::kError);
  EXPECT_EQ(header.value().status, StatusCode::kInvalidArgument);
  EXPECT_EQ(header.value().ticket, 7u);  // pipelining: error echoes ticket

  // Memory-amplification guard: a tiny payload declaring a huge node
  // count is rejected before the dense adjacency is ever allocated.
  ASSERT_TRUE(SendPredict(fd, 8, 0, "graph 1000000 0\n").ok());
  header = RecvFrame(fd, &payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type, FrameType::kError);
  EXPECT_EQ(header.value().status, StatusCode::kInvalidArgument);

  // The connection survives typed errors: a valid request still works.
  ASSERT_TRUE(SendPredict(fd, 9, 0, fx.GraphText(0)).ok());
  header = RecvFrame(fd, &payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type, FrameType::kPredictOk);
  CloseFd(fd);
}

TEST(ServerTest, BinaryHostileGraphFieldsGetTypedErrors) {
  // The fixture serves a 7-wide node-label one-hot (MUTAG-like).
  ServerFixture fx;
  const int fd = fx.Connect();
  const char* const hostile[] = {
      "graph 3 0\nedge 0 1 0\n",   // zero edge weight
      "graph 3 0\nedge 0 1 -1\n",  // negative edge weight
      "graph 3 0\nnode 0 7\n",     // label at the one-hot width
      "graph 3 0\nnode 2 -1\n",    // negative label
  };
  uint64_t ticket = 20;
  std::string payload;
  for (const char* text : hostile) {
    ASSERT_TRUE(SendPredict(fd, ticket, 0, text).ok());
    StatusOr<WireHeader> header = RecvFrame(fd, &payload);
    ASSERT_TRUE(header.ok()) << text;
    EXPECT_EQ(header.value().type, FrameType::kError) << text;
    EXPECT_EQ(header.value().status, StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(header.value().ticket, ticket) << text;
    ++ticket;
  }
  // The server is still up and answering on the same connection.
  ASSERT_TRUE(SendPredict(fd, ticket, 0, fx.GraphText(0)).ok());
  StatusOr<WireHeader> header = RecvFrame(fd, &payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type, FrameType::kPredictOk);
  CloseFd(fd);
}

TEST(ServerTest, BinaryGraphWithTrailingJunkGetsTypedError) {
  // Everything in the payload must belong to its one graph block: a
  // misspelled keyword, junk after a line, or a second block is refused
  // instead of answering for the part that parsed.
  ServerFixture fx;
  const int fd = fx.Connect();
  const char* const junk[] = {
      "graph 3 0\nedge 0 1\nedgee 1 2\n",
      "graph 3 0\nnode 0 1 junk\nedge 0 1\n",
      "graph 3 0\nedge 0 1 3.5xyz\n",
      "graph 3 0\nedge 0 1\ngraph 2 0\nedge 0 1\n",
  };
  uint64_t ticket = 40;
  std::string payload;
  for (const char* text : junk) {
    ASSERT_TRUE(SendPredict(fd, ticket, 0, text).ok());
    StatusOr<WireHeader> header = RecvFrame(fd, &payload);
    ASSERT_TRUE(header.ok()) << text;
    EXPECT_EQ(header.value().type, FrameType::kError) << text;
    EXPECT_EQ(header.value().status, StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(header.value().ticket, ticket) << text;
    ++ticket;
  }
  ASSERT_TRUE(SendPredict(fd, ticket, 0, fx.GraphText(0)).ok());
  StatusOr<WireHeader> header = RecvFrame(fd, &payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type, FrameType::kPredictOk);
  CloseFd(fd);
}

TEST(ServerTest, HttpHostileGraphFieldsGetTypedErrors) {
  ServerFixture fx;
  const int fd = fx.Connect();
  const char* const hostile[] = {
      R"({"nodes":3,"edges":[[0,1,0]]})",       // zero edge weight
      R"({"nodes":3,"edges":[[0,1,-2]]})",      // negative edge weight
      R"({"nodes":3,"edges":[[0,1,1e300]]})",   // beyond float's range
      R"({"nodes":3,"edges":[[0,1,1e-300]]})",  // rounds to a zero float
      R"({"nodes":3,"node_labels":[7,0,0]})",   // at the one-hot width
      R"({"nodes":3,"node_labels":[0,1e300,0]})",  // beyond int's range
      R"({"nodes":3,"node_labels":[0,1.5,0]})",    // not an integer
      R"({"nodes":1e300})",                        // beyond int's range
      R"({"nodes":3,"edges":[[0,-1e300]]})",       // beyond int's range
      R"({"nodes":3,"edges":[[0,4294967297]]})",   // wraps to 1 as int
  };
  for (const char* body : hostile) {
    StatusOr<std::string> response = HttpRoundTrip(fd, Post("/predict", body));
    ASSERT_TRUE(response.ok()) << body;
    EXPECT_NE(response.value().find("HTTP/1.1 400"), std::string::npos)
        << body << " -> " << response.value();
    EXPECT_NE(response.value().find("INVALID_ARGUMENT"), std::string::npos)
        << body << " -> " << response.value();
  }
  // A huge deadline is clamped, not cast out of range, and the server
  // keeps answering on the same connection.
  StatusOr<std::string> response = HttpRoundTrip(
      fd, Post("/predict",
               R"({"nodes":3,"node_labels":[0,1,2],"edges":[[0,1,0.5]],)"
               R"("deadline_ms":1e300})"));
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response.value().find("HTTP/1.1 200"), std::string::npos)
      << response.value();
  CloseFd(fd);
}

TEST(ServerTest, BinaryBadMagicClosesConnection) {
  ServerFixture fx;
  const uint64_t errors_before =
      obs::CounterValue(obs::names::kServeNetProtocolErrors);
  const int fd = fx.Connect();
  // First byte 0x89 routes to the binary protocol, but the full magic
  // is wrong — the server counts a protocol error and hangs up.
  uint8_t bogus[kWireHeaderSize] = {0x89, 'H', 'A', 'X'};
  ASSERT_TRUE(SendAll(fd, bogus, sizeof(bogus)).ok());
  char c;
  EXPECT_EQ(RecvAll(fd, &c, 1).code(), StatusCode::kOutOfRange);  // EOF
  EXPECT_GT(obs::CounterValue(obs::names::kServeNetProtocolErrors),
            errors_before);
  CloseFd(fd);
}

TEST(ServerTest, HttpEndpointsServePredictHealthMetricsStats) {
  ServerFixture fx;
  const int fd = fx.Connect();

  // POST /predict: graph 0 re-encoded as the JSON body.
  const Graph& g = fx.dataset.graphs[0];
  std::string body = "{\"nodes\":" + std::to_string(g.num_nodes()) +
                     ",\"node_labels\":[";
  for (int u = 0; u < g.num_nodes(); ++u) {
    if (u > 0) body += ',';
    body += std::to_string(g.node_label(u));
  }
  body += "],\"edges\":[";
  bool first = true;
  for (const auto& [u, v] : g.Edges()) {
    if (!first) body += ',';
    first = false;
    body += "[" + std::to_string(u) + "," + std::to_string(v) + "]";
  }
  body += "],\"deadline_ms\":2000}";
  StatusOr<std::string> response = HttpRoundTrip(fd, Post("/predict", body));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response.value().find("HTTP/1.1 200"), std::string::npos)
      << response.value();
  StatusOr<JsonValue> predicted = ParseJson(Body(response.value()));
  ASSERT_TRUE(predicted.ok());
  ASSERT_NE(predicted.value().Find("prediction"), nullptr);
  EXPECT_EQ(static_cast<int>(
                predicted.value().Find("prediction")->number_value()),
            fx.direct[0]);

  // Keep-alive: the same connection serves the scrape endpoints.
  response = HttpRoundTrip(fd, Get("/healthz"));
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response.value().find("HTTP/1.1 200"), std::string::npos);

  response = HttpRoundTrip(fd, Get("/metrics"));
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response.value().find("hap_serve_net_requests_http"),
            std::string::npos)
      << "Prometheus render should include the net request counter";

  response = HttpRoundTrip(fd, Get("/stats"));
  ASSERT_TRUE(response.ok());
  StatusOr<JsonValue> stats = ParseJson(Body(response.value()));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats.value().Find("queue_depth"), nullptr);
  const JsonValue* counters = stats.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find(obs::names::kServeNetRequestsHttp), nullptr);
  EXPECT_GE(counters->Find(obs::names::kServeNetRequestsHttp)->number_value(),
            4.0);
  EXPECT_NE(stats.value().Find("latency_ns"), nullptr);

  // Unknown path and malformed JSON get typed HTTP errors, and the
  // connection keeps serving afterwards.
  response = HttpRoundTrip(fd, Get("/nope"));
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response.value().find("HTTP/1.1 404"), std::string::npos);
  response = HttpRoundTrip(fd, Post("/predict", "{not json"));
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response.value().find("HTTP/1.1 400"), std::string::npos);
  response = HttpRoundTrip(fd, Post("/reload", ""));
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response.value().find("HTTP/1.1 404"), std::string::npos)
      << "no reload handler configured";
  CloseFd(fd);
}

TEST(ServerTest, HttpReloadHotSwapsTheServedModel) {
  ServerFixture* fixture = nullptr;
  ServerConfig server_config;
  // The handler republishes the fixture checkpoint at version 2 — a
  // genuine ModelRegistry::Publish hot-swap.
  server_config.reload_handler = [&fixture]() {
    return fixture->registry.Reload("model", 2, fixture->config,
                                    fixture->checkpoint);
  };
  ServerFixture fx(EngineConfig{}, server_config);
  fixture = &fx;

  const uint64_t reloads_before =
      obs::CounterValue(obs::names::kServeReloads);
  const int fd = fx.Connect();
  StatusOr<std::string> response = HttpRoundTrip(fd, Post("/reload", ""));
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response.value().find("HTTP/1.1 200"), std::string::npos)
      << response.value();
  EXPECT_GT(obs::CounterValue(obs::names::kServeReloads), reloads_before);
  EXPECT_TRUE(fx.registry.Get("model", 2).ok());

  // Predictions keep flowing on the swapped model (same weights here,
  // so the answer is unchanged). A connection's protocol is sniffed
  // once from its first byte, so the binary check uses a fresh one.
  const int bin_fd = fx.Connect();
  ASSERT_TRUE(SendPredict(bin_fd, 1, 0, fx.GraphText(0)).ok());
  std::string payload;
  StatusOr<WireHeader> header = RecvFrame(bin_fd, &payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().type, FrameType::kPredictOk);
  EXPECT_EQ(DecodePrediction(payload).value(), fx.direct[0]);
  CloseFd(bin_fd);
  CloseFd(fd);
}

TEST(ServerTest, OverloadShedsTypedAndAnswersEveryFrame) {
  // max_batch 1 makes the batcher process one forward at a time, so a
  // burst queues up and crosses the shed threshold; every frame still
  // gets exactly one response.
  EngineConfig engine_config;
  engine_config.max_batch = 1;
  engine_config.max_delay_us = 0;
  ServerConfig server_config;
  server_config.admission.shed_queue_depth = 2;
  ServerFixture fx(engine_config, server_config);

  const uint64_t shed_before = obs::CounterValue(obs::names::kServeShedTotal);
  const int fd = fx.Connect();
  constexpr int kBurst = 24;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(SendPredict(fd, static_cast<uint64_t>(i), 0,
                            fx.GraphText(i % 4))
                    .ok());
  }
  int ok = 0, shed = 0, other = 0;
  std::string payload;
  for (int i = 0; i < kBurst; ++i) {
    StatusOr<WireHeader> header = RecvFrame(fd, &payload);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    if (header.value().type == FrameType::kPredictOk) {
      ++ok;
    } else if (header.value().status == StatusCode::kResourceExhausted) {
      ++shed;
    } else {
      ++other;
    }
  }
  EXPECT_EQ(ok + shed + other, kBurst);
  EXPECT_EQ(other, 0);
  EXPECT_GT(ok, 0) << "at least the first request must be admitted";
  EXPECT_GT(shed, 0) << "the burst should cross shed_queue_depth=2";
  EXPECT_GT(obs::CounterValue(obs::names::kServeShedTotal), shed_before);
  CloseFd(fd);
}

TEST(ServerTest, CacheSharesPreparedGraphsAcrossWireRequests) {
  ServerFixture fx;
  const uint64_t hits_before = obs::CounterValue(obs::names::kServeCacheHit);
  const uint64_t misses_before =
      obs::CounterValue(obs::names::kServeCacheMiss);
  const int fd = fx.Connect();
  std::string payload;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(SendPredict(fd, static_cast<uint64_t>(round), 0,
                            fx.GraphText(5))
                    .ok());
    StatusOr<WireHeader> header = RecvFrame(fd, &payload);
    ASSERT_TRUE(header.ok());
    ASSERT_EQ(header.value().type, FrameType::kPredictOk);
    EXPECT_EQ(DecodePrediction(payload).value(), fx.direct[5]);
  }
  EXPECT_EQ(obs::CounterValue(obs::names::kServeCacheMiss) - misses_before,
            1u)
      << "identical payloads must prepare once";
  EXPECT_EQ(obs::CounterValue(obs::names::kServeCacheHit) - hits_before, 2u);
  CloseFd(fd);
}

TEST(GraphCacheTest, CanonicalKeyIgnoresGraphLabelNotContent) {
  Rng rng(5);
  GraphDataset dataset = MakeMutagLike(2, &rng);
  Graph a = dataset.graphs[0];
  Graph relabelled = a;
  relabelled.set_label(a.label() + 1);  // the predicted quantity
  EXPECT_EQ(GraphCache::CanonicalKey(a),
            GraphCache::CanonicalKey(relabelled));
  EXPECT_NE(GraphCache::CanonicalKey(a),
            GraphCache::CanonicalKey(dataset.graphs[1]));

  Graph reweighted = a;
  auto edges = a.Edges();
  reweighted.AddEdge(edges[0].first, edges[0].second, 2.5f);
  EXPECT_NE(GraphCache::CanonicalKey(a),
            GraphCache::CanonicalKey(reweighted));
}

TEST(GraphCacheTest, LruEvictsAtCapacityAndSharesPointers) {
  Rng rng(5);
  GraphDataset dataset = MakeMutagLike(4, &rng);
  GraphCache cache(2, dataset.feature_spec);
  auto a0 = cache.Prepare(dataset.graphs[0]);
  auto a0_again = cache.Prepare(dataset.graphs[0]);
  EXPECT_EQ(a0.get(), a0_again.get()) << "hits share one PreparedGraph";
  cache.Prepare(dataset.graphs[1]);
  cache.Prepare(dataset.graphs[2]);  // evicts graph 0 (LRU)
  EXPECT_EQ(cache.size(), 2u);
  auto a0_refetched = cache.Prepare(dataset.graphs[0]);
  EXPECT_NE(a0_refetched.get(), a0.get())
      << "evicted entry re-prepares; the old shared_ptr stays valid";
  EXPECT_EQ(a0->label, a0_refetched->label);
}

}  // namespace
}  // namespace hap::serve