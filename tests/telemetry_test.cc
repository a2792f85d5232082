// Serve-grade telemetry: sketch error contract against exact quantiles,
// snapshot merge/delta algebra, per-request flow events under concurrent
// serve load, Prometheus text-format grammar, exemplar capture, and the
// per-request access log.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "obs/exporter.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/sketch.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "serve/served_model.h"
#include "serve/telemetry.h"
#include "tensor/serialize.h"
#include "train/model_zoo.h"

namespace hap {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- Sketch bucket scheme --------------------------------------------

TEST(SketchBucketTest, ExactBelowSplitAndMonotoneAbove) {
  // Values below 2*kSketchSubBuckets get one bucket each.
  for (uint64_t v = 0; v < 2 * obs::kSketchSubBuckets; ++v) {
    EXPECT_EQ(obs::SketchBucket(v), static_cast<int>(v));
    EXPECT_EQ(obs::SketchBucketLow(static_cast<int>(v)), v);
  }
  // Bucket index is monotone in the value and low/high bracket it.
  int prev = -1;
  for (uint64_t v : {128ull, 129ull, 1000ull, 4096ull, 1234567ull,
                     987654321ull, (1ull << 47), ~0ull}) {
    const int b = obs::SketchBucket(v);
    EXPECT_GE(b, prev);
    prev = b;
    EXPECT_LT(b, obs::kSketchBuckets);
    if (v < (1ull << 47)) {
      EXPECT_LE(obs::SketchBucketLow(b), v);
      EXPECT_LT(v, obs::SketchBucketHigh(b));
    }
  }
  // Every bucket's low edge maps back to that bucket, and edges tile:
  // high(b) == low(b+1).
  for (int b = 0; b < obs::kSketchBuckets; ++b) {
    EXPECT_EQ(obs::SketchBucket(obs::SketchBucketLow(b)), b) << "bucket " << b;
    if (b + 1 < obs::kSketchBuckets) {
      EXPECT_EQ(obs::SketchBucketHigh(b), obs::SketchBucketLow(b + 1));
    }
  }
}

TEST(SketchBucketTest, RelativeWidthWithinDocumentedBound) {
  // Above the exact range every bucket's width is <= low/64, which is
  // the <= 1.6% edge-error contract in obs/sketch.h.
  for (int b = 2 * obs::kSketchSubBuckets; b < obs::kSketchBuckets; ++b) {
    const uint64_t low = obs::SketchBucketLow(b);
    const uint64_t width = obs::SketchBucketHigh(b) - low;
    EXPECT_LE(static_cast<double>(width),
              static_cast<double>(low) / obs::kSketchSubBuckets + 1e-9)
        << "bucket " << b;
  }
}

// --- Error contract vs exact sorted-sample quantiles -----------------

// Records a randomized stream into a Sketch, then checks every quantile
// estimate against the exact order statistic: relative error must stay
// within the documented 2% bound (acceptance criterion).
TEST(SketchTest, QuantilesWithinTwoPercentOfExactOnRandomStreams) {
  struct Case {
    const char* name;
    uint64_t seed;
    // Draws one sample. Mixes regimes: uniform, log-uniform (latencies
    // spanning decades), heavy-tailed.
    uint64_t (*draw)(Rng*);
  };
  const Case cases[] = {
      {"uniform", 11,
       [](Rng* rng) { return static_cast<uint64_t>(rng->Uniform(0, 1e6)); }},
      {"log_uniform", 22,
       [](Rng* rng) {
         return static_cast<uint64_t>(std::exp(rng->Uniform(0.0, 20.0)));
       }},
      {"heavy_tail", 33,
       [](Rng* rng) {
         const double u = rng->Uniform();
         return static_cast<uint64_t>(1e3 / (1e-4 + u * u));
       }},
  };
  for (const Case& c : cases) {
    obs::ResetMetrics();
    Rng rng(c.seed);
    obs::Sketch* sketch = obs::GetSketch("test.sketch.random");
    std::vector<uint64_t> samples;
    constexpr int kSamples = 20000;
    samples.reserve(kSamples);
    for (int i = 0; i < kSamples; ++i) {
      const uint64_t v = c.draw(&rng);
      samples.push_back(v);
      sketch->Record(v);
    }
    std::sort(samples.begin(), samples.end());
    const obs::SketchSnapshot snap = obs::SnapshotSketch("test.sketch.random");
    ASSERT_EQ(snap.count, static_cast<uint64_t>(kSamples)) << c.name;
    for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
      const double estimate = snap.Quantile(q);
      const double exact = static_cast<double>(
          samples[static_cast<size_t>(q * (kSamples - 1))]);
      const double denom = std::max(exact, 1.0);
      EXPECT_LE(std::abs(estimate - exact) / denom, 0.02)
          << c.name << " q=" << q << " exact=" << exact
          << " estimate=" << estimate;
    }
  }
  obs::ResetMetrics();
}

TEST(SketchTest, CountSumAndExactValuesBelowSplit) {
  obs::ResetMetrics();
  obs::Sketch* sketch = obs::GetSketch("test.sketch.small");
  for (uint64_t v = 0; v < 100; ++v) sketch->Record(v);
  EXPECT_EQ(sketch->Count(), 100u);
  EXPECT_EQ(sketch->Sum(), 99u * 100u / 2);
  const obs::SketchSnapshot snap = obs::SnapshotSketch("test.sketch.small");
  // Values below 2*kSketchSubBuckets are exact: the median of 0..99 is
  // recovered to within the half-bucket interpolation offset.
  EXPECT_NEAR(snap.Quantile(0.5), 49.5, 1.0);
  obs::ResetMetrics();
}

TEST(SketchTest, RecordsAggregateAcrossPoolThreads) {
  obs::ResetMetrics();
  obs::Sketch* sketch = obs::GetSketch("test.sketch.pool");
  ThreadPool pool(4);
  constexpr int64_t kJobs = 4000;
  pool.Run(kJobs, [&](int64_t job) {
    sketch->Record(static_cast<uint64_t>(job));
  });
  EXPECT_EQ(sketch->Count(), static_cast<uint64_t>(kJobs));
  EXPECT_EQ(sketch->Sum(), static_cast<uint64_t>(kJobs * (kJobs - 1) / 2));
  obs::ResetMetrics();
}

// --- Snapshot algebra ------------------------------------------------

TEST(SketchSnapshotTest, MergeAndDeltaAreBucketwiseInverses) {
  obs::ResetMetrics();
  obs::Sketch* sketch = obs::GetSketch("test.sketch.algebra");
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    sketch->Record(static_cast<uint64_t>(rng.Uniform(0, 1e5)));
  }
  const obs::SketchSnapshot first = obs::SnapshotSketch("test.sketch.algebra");
  for (int i = 0; i < 1000; ++i) {
    sketch->Record(static_cast<uint64_t>(rng.Uniform(0, 1e5)));
  }
  const obs::SketchSnapshot second =
      obs::SnapshotSketch("test.sketch.algebra");

  // delta = second - first; first merged with delta == second, exactly,
  // bucket by bucket (the mergeability contract).
  const obs::SketchSnapshot delta = second.DeltaSince(first);
  EXPECT_EQ(delta.count, 1000u);
  obs::SketchSnapshot rebuilt = first;
  rebuilt.MergeFrom(delta);
  EXPECT_EQ(rebuilt.count, second.count);
  EXPECT_EQ(rebuilt.sum, second.sum);
  ASSERT_EQ(rebuilt.buckets.size(), second.buckets.size());
  for (size_t b = 0; b < rebuilt.buckets.size(); ++b) {
    EXPECT_EQ(rebuilt.buckets[b], second.buckets[b]) << "bucket " << b;
  }
  obs::ResetMetrics();
}

TEST(SketchSnapshotTest, NeverRegisteredNameYieldsEmptySnapshot) {
  const obs::SketchSnapshot snap =
      obs::SnapshotSketch("test.sketch.not_registered");
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Quantile(0.99), 0.0);
  EXPECT_EQ(static_cast<int>(snap.buckets.size()), obs::kSketchBuckets);
}

// --- HistogramSnapshot::QuantileInterpolated (satellite) -------------

TEST(HistogramSnapshotTest, QuantileInterpolatedRefinesApproxQuantile) {
  obs::ResetMetrics();
  obs::Histogram* hist = obs::GetHistogram("test.hist.interp");
  // 1000 uniform values in [1024, 2048): one power-of-two bucket, so
  // ApproxQuantile collapses every quantile to 1024 while interpolation
  // spreads the bucket span over its occupants.
  for (int i = 0; i < 1000; ++i) {
    hist->Record(1024 + static_cast<uint64_t>(i));
  }
  obs::HistogramSnapshot snap;
  for (const obs::HistogramSnapshot& h : obs::SnapshotMetrics().histograms) {
    if (h.name == "test.hist.interp") snap = h;
  }
  ASSERT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.ApproxQuantile(0.5), 1024u);
  EXPECT_NEAR(snap.QuantileInterpolated(0.5), 1536.0, 64.0);
  EXPECT_GT(snap.QuantileInterpolated(0.9), snap.QuantileInterpolated(0.5));
  obs::ResetMetrics();
}

// --- Prometheus text format ------------------------------------------

// Grammar check for the Prometheus text exposition format: every line
// is a comment (# ...) or `name{labels} value` with a valid metric
// name; histogram families must have matching _sum/_count and a +Inf
// bucket with cumulative, non-decreasing counts.
void CheckPrometheusGrammar(const std::string& text) {
  std::stringstream lines(text);
  std::string line;
  std::map<std::string, uint64_t> last_bucket_value;  // per family
  std::map<std::string, bool> saw_inf;
  int metric_lines = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      // "# TYPE <name> <counter|gauge|histogram>"
      std::stringstream parts(line);
      std::string hash, kw, name, type;
      parts >> hash >> kw >> name >> type;
      EXPECT_EQ(kw, "TYPE") << line;
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << line;
      continue;
    }
    ++metric_lines;
    // Metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
    size_t i = 0;
    auto name_start = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
             c == ':';
    };
    ASSERT_TRUE(name_start(line[0])) << line;
    while (i < line.size() &&
           (name_start(line[i]) || (line[i] >= '0' && line[i] <= '9'))) {
      ++i;
    }
    const std::string name = line.substr(0, i);
    std::string labels;
    if (i < line.size() && line[i] == '{') {
      const size_t close = line.find('}', i);
      ASSERT_NE(close, std::string::npos) << line;
      labels = line.substr(i, close - i + 1);
      i = close + 1;
    }
    ASSERT_LT(i, line.size()) << line;
    ASSERT_EQ(line[i], ' ') << line;
    const std::string value = line.substr(i + 1);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;

    if (name.size() > 7 && name.substr(name.size() - 7) == "_bucket") {
      const std::string family = name.substr(0, name.size() - 7);
      ASSERT_FALSE(labels.empty()) << line;
      EXPECT_EQ(labels.rfind("{le=\"", 0), 0u) << line;
      const uint64_t count = std::strtoull(value.c_str(), nullptr, 10);
      EXPECT_GE(count, last_bucket_value[family])
          << "non-cumulative buckets: " << line;
      last_bucket_value[family] = count;
      if (labels.find("+Inf") != std::string::npos) saw_inf[family] = true;
    }
  }
  EXPECT_GT(metric_lines, 0);
  for (const auto& [family, inf] : saw_inf) {
    EXPECT_TRUE(inf) << family << " missing +Inf bucket";
  }
}

TEST(ExporterTest, PrometheusRenderPassesGrammarCheck) {
  obs::ResetMetrics();
  obs::GetCounter("test.prom.requests.total")->Add(42);
  obs::GetGauge("test.prom.depth")->Set(3.5);
  obs::Histogram* hist = obs::GetHistogram("test.prom.size");
  obs::Sketch* sketch = obs::GetSketch("test.prom.latency.ns");
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    hist->Record(static_cast<uint64_t>(rng.Uniform(0, 1e4)));
    sketch->Record(static_cast<uint64_t>(rng.Uniform(0, 1e7)));
  }
  const std::string text = obs::RenderPrometheus(obs::SnapshotMetrics());
  // Names sanitized into the hap_ namespace.
  EXPECT_NE(text.find("hap_test_prom_requests_total 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hap_test_prom_latency_ns histogram"),
            std::string::npos);
  CheckPrometheusGrammar(text);
  obs::ResetMetrics();
}

TEST(ExporterTest, FileModeWritesAtomicPromAndJson) {
  obs::ResetMetrics();
  obs::GetCounter("test.exporter.ticks")->Add(7);
  obs::GetSketch("test.exporter.lat")->Record(12345);
  obs::TelemetryExporter::Options options;
  options.path = testing::TempDir() + "/hap_exporter.prom";
  options.interval_ms = 100000;  // scrape manually, not on the timer
  obs::TelemetryExporter exporter(options);
  ASSERT_TRUE(exporter.ScrapeOnce());

  const std::string prom = ReadFile(options.path);
  CheckPrometheusGrammar(prom);
  EXPECT_NE(prom.find("hap_test_exporter_ticks 7"), std::string::npos);

  const std::string json = ReadFile(options.path + ".json");
  StatusOr<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* cumulative = parsed.value().Find("cumulative");
  ASSERT_NE(cumulative, nullptr);
  EXPECT_NE(cumulative->Find("sketches"), nullptr);
  ASSERT_NE(parsed.value().Find("interval_sketches"), nullptr);
  ASSERT_NE(parsed.value().Find("sections"), nullptr);
  exporter.Stop();
  obs::ResetMetrics();
}

TEST(ExporterTest, FileModeReportsFailureWithoutCrashing) {
  obs::ResetMetrics();
  obs::GetCounter("test.exporter.fail")->Add(1);
  obs::TelemetryExporter::Options options;
  // Unwritable target: the parent directory does not exist, so the
  // tmp-file open fails. ScrapeOnce must report false (logged skip),
  // leave no tmp litter behind, and the exporter must stay usable.
  options.path = testing::TempDir() + "/no_such_dir/hap_exporter.prom";
  options.interval_ms = 100000;
  obs::TelemetryExporter exporter(options);
  EXPECT_FALSE(exporter.ScrapeOnce());
  EXPECT_FALSE(std::ifstream(options.path).good());
  EXPECT_FALSE(std::ifstream(options.path + ".tmp").good());

  // A later scrape to a writable path succeeds: transient disk trouble
  // does not wedge the exporter.
  obs::TelemetryExporter::Options good;
  good.path = testing::TempDir() + "/hap_exporter_recovered.prom";
  good.interval_ms = 100000;
  obs::TelemetryExporter recovered(good);
  EXPECT_TRUE(recovered.ScrapeOnce());
  EXPECT_TRUE(std::ifstream(good.path).good());
  exporter.Stop();
  recovered.Stop();
  obs::ResetMetrics();
}

TEST(ExporterTest, IntervalSketchesAreDeltas) {
  obs::ResetMetrics();
  obs::Sketch* sketch = obs::GetSketch("test.exporter.delta");
  sketch->Record(100);
  obs::TelemetryExporter::Options options;
  options.path = testing::TempDir() + "/hap_exporter_delta.prom";
  options.interval_ms = 100000;
  obs::TelemetryExporter exporter(options);
  ASSERT_TRUE(exporter.ScrapeOnce());
  sketch->Record(200);
  sketch->Record(300);
  ASSERT_TRUE(exporter.ScrapeOnce());
  StatusOr<JsonValue> parsed = ParseJson(ReadFile(options.path + ".json"));
  ASSERT_TRUE(parsed.ok());
  const JsonValue* interval = parsed.value().Find("interval_sketches");
  ASSERT_NE(interval, nullptr);
  bool found = false;
  for (const JsonValue& s : interval->array()) {
    if (s.Find("name")->string_value() != "test.exporter.delta") continue;
    found = true;
    // Only the two records since the previous scrape.
    EXPECT_EQ(s.Find("count")->number_value(), 2.0);
  }
  EXPECT_TRUE(found);
  exporter.Stop();
  obs::ResetMetrics();
}

// --- Exemplars -------------------------------------------------------

TEST(ExemplarStoreTest, ClassifiesSlowVsSampledAndBoundsCapacity) {
  serve::ExemplarStore& store = serve::ExemplarStore::Instance();
  store.Reset();
  store.SetSlowThresholdNs(1000);
  for (uint64_t i = 0; i < 200; ++i) {
    serve::RequestExemplar e;
    e.id = i;
    e.latency_ns = (i % 3 == 0) ? 5000 : 10;  // every third is slow
    store.Record(e);
  }
  const auto slow = store.SlowSnapshot();
  const auto sampled = store.SampleSnapshot();
  EXPECT_LE(static_cast<int>(slow.size()), serve::kSlowExemplarCapacity);
  EXPECT_EQ(static_cast<int>(sampled.size()),
            serve::kSampledExemplarCapacity);
  for (const serve::RequestExemplar& e : slow) EXPECT_GE(e.latency_ns, 1000u);
  for (const serve::RequestExemplar& e : sampled) EXPECT_LT(e.latency_ns, 1000u);
  // Ring keeps the most recent slow requests.
  EXPECT_EQ(slow.back().id, 198u);  // last multiple of 3 below 200

  StatusOr<JsonValue> parsed = ParseJson(store.ScrapeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed.value().Find("slow"), nullptr);
  EXPECT_NE(parsed.value().Find("sampled"), nullptr);
  EXPECT_EQ(parsed.value().Find("slow_threshold_ns")->number_value(), 1000.0);
  store.Reset();
  store.SetSlowThresholdNs(serve::kDefaultSlowThresholdNs);
}

// --- Serve integration: flows, stage sketches, access log ------------

std::string WriteCheckpoint(const serve::ServedModelConfig& config,
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
  serve::ServedModelConfig config;
  GraphDataset dataset;
  std::vector<PreparedGraph> prepared;
  std::shared_ptr<const serve::ServedModel> model;

  ServeFixture() {
    Rng rng(3);
    dataset = MakeMutagLike(16, &rng);
    prepared = PrepareDataset(dataset);
    config.method = "HAP";
    config.feature_dim = dataset.feature_spec.FeatureDim();
    config.hidden = 8;
    config.num_classes = dataset.num_classes;
    config.lanes = 4;
    model = serve::ServedModel::Load(
                config, WriteCheckpoint(config, "telemetry_fixture.bin", 21))
                .value();
  }
};

// One parsed trace event (only the fields the flow checks need).
struct FlowEvent {
  char phase;
  int tid;
  uint64_t id;
};

void ExtractFlowEvents(const std::string& trace,
                       std::vector<FlowEvent>* events) {
  std::stringstream lines(trace);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t ph = line.find("\"ph\":\"");
    if (ph == std::string::npos) continue;
    const char phase = line[ph + 6];
    if (phase != 's' && phase != 't' && phase != 'f') continue;
    const size_t tid = line.find("\"tid\":");
    const size_t id = line.find("\"id\":");
    ASSERT_NE(tid, std::string::npos) << line;
    ASSERT_NE(id, std::string::npos) << line;
    // Flow events must carry the category Perfetto groups them by.
    EXPECT_NE(line.find("\"cat\":\"flow\""), std::string::npos) << line;
    events->push_back(FlowEvent{
        phase, std::atoi(line.c_str() + tid + 6),
        std::strtoull(line.c_str() + id + 5, nullptr, 10)});
  }
}

TEST(ServeTelemetryTest, FlowEventsUnderConcurrentLoad) {
  ServeFixture fx;
  SetNumThreads(4);
  const std::string path = testing::TempDir() + "/hap_serve_flows.json";
  obs::SetMetricsEnabled(true);
  ASSERT_TRUE(obs::StartTracing(path));

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 25;
  std::vector<uint64_t> expected_requests;
  {
    serve::EngineConfig config;
    config.max_batch = 8;
    serve::InferenceEngine engine(fx.model, config);
    std::atomic<bool> start{false};
    std::vector<std::thread> producers;
    std::vector<std::vector<std::future<int>>> futures(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        obs::SetCurrentThreadName("serve-producer-" + std::to_string(p));
        while (!start.load()) std::this_thread::yield();
        for (int i = 0; i < kPerProducer; ++i) {
          const int g =
              (p * kPerProducer + i) % static_cast<int>(fx.prepared.size());
          while (true) {
            StatusOr<std::future<int>> result = engine.Submit(fx.prepared[g]);
            if (result.ok()) {
              futures[p].push_back(std::move(result.value()));
              break;
            }
            std::this_thread::yield();
          }
        }
      });
    }
    start.store(true);
    for (std::thread& t : producers) t.join();
    for (auto& fs : futures) {
      for (std::future<int>& f : fs) EXPECT_GE(f.get(), 0);
    }
    engine.Shutdown();
  }
  ASSERT_TRUE(obs::StopTracing());
  obs::SetMetricsEnabled(false);
  SetNumThreads(1);

  const std::string trace = ReadFile(path);
  ASSERT_FALSE(trace.empty());
  // Perfetto-loadable: strict JSON (checked with the repo's own parser).
  StatusOr<JsonValue> parsed = ParseJson(trace);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Balanced B/E per track.
  {
    std::map<int, int> depth;
    std::stringstream lines(trace);
    std::string line;
    while (std::getline(lines, line)) {
      const size_t ph = line.find("\"ph\":\"");
      const size_t tid = line.find("\"tid\":");
      if (ph == std::string::npos || tid == std::string::npos) continue;
      const char phase = line[ph + 6];
      if (phase != 'B' && phase != 'E') continue;
      int& d = depth[std::atoi(line.c_str() + tid + 6)];
      d += phase == 'B' ? 1 : -1;
      ASSERT_GE(d, 0);
    }
    for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
  }

  // Every request id's flow appears exactly once per stage — 's' on a
  // producer track, 't' on the batcher track, 'f' on a lane track —
  // and the three stages sit on (at least two) distinct tracks.
  std::vector<FlowEvent> flows;
  ExtractFlowEvents(trace, &flows);
  ASSERT_FALSE(flows.empty());
  struct PerId {
    int s = 0, t = 0, f = 0;
    int s_tid = -1, t_tid = -1, f_tid = -1;
  };
  std::map<uint64_t, PerId> per_id;
  for (const FlowEvent& e : flows) {
    PerId& entry = per_id[e.id];
    if (e.phase == 's') {
      ++entry.s;
      entry.s_tid = e.tid;
    } else if (e.phase == 't') {
      ++entry.t;
      entry.t_tid = e.tid;
    } else {
      ++entry.f;
      entry.f_tid = e.tid;
    }
  }
  EXPECT_EQ(per_id.size(),
            static_cast<size_t>(kProducers * kPerProducer));
  for (const auto& [id, entry] : per_id) {
    EXPECT_EQ(entry.s, 1) << "request " << id;
    EXPECT_EQ(entry.t, 1) << "request " << id;
    EXPECT_EQ(entry.f, 1) << "request " << id;
    // Producer and batcher are different threads by construction.
    EXPECT_NE(entry.s_tid, entry.t_tid) << "request " << id;
  }

  // The stage sketches saw every request.
  const obs::SketchSnapshot latency =
      obs::SnapshotSketch(obs::names::kServeLatencyNs);
  EXPECT_GE(latency.count,
            static_cast<uint64_t>(kProducers * kPerProducer));
  const obs::SketchSnapshot forward =
      obs::SnapshotSketch(obs::names::kServeStageForwardNs);
  EXPECT_GE(forward.count,
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_GT(latency.Quantile(0.99), 0.0);
}

TEST(ServeTelemetryTest, AccessLogWritesOneJsonLinePerRequest) {
  ServeFixture fx;
  const std::string path = testing::TempDir() + "/hap_access.jsonl";
  {
    serve::EngineConfig config;
    config.access_log_path = path;
    serve::InferenceEngine engine(fx.model, config);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 12; ++i) {
      futures.push_back(
          engine.Submit(fx.prepared[i % fx.prepared.size()]).value());
    }
    for (std::future<int>& f : futures) f.get();
    engine.Shutdown();
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  std::vector<uint64_t> ids;
  while (std::getline(in, line)) {
    StatusOr<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const JsonValue* id = parsed.value().Find("id");
    ASSERT_NE(id, nullptr);
    ids.push_back(static_cast<uint64_t>(id->number_value()));
    for (const char* key : {"enqueue_ns", "seal_ns", "forward_start_ns",
                            "forward_end_ns", "resolve_ns", "latency_ns",
                            "batch_size", "prediction"}) {
      EXPECT_NE(parsed.value().Find(key), nullptr) << key;
    }
    // Stage stamps are causally ordered.
    const auto ns = [&](const char* key) {
      return parsed.value().Find(key)->number_value();
    };
    EXPECT_LE(ns("enqueue_ns"), ns("seal_ns"));
    EXPECT_LE(ns("seal_ns"), ns("forward_start_ns"));
    EXPECT_LE(ns("forward_start_ns"), ns("forward_end_ns"));
    EXPECT_LE(ns("forward_end_ns"), ns("resolve_ns"));
    ++lines;
  }
  EXPECT_EQ(lines, 12);
  // Ids are unique.
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(ServeTelemetryTest, DisabledModeRecordsNoStageSketches) {
  ServeFixture fx;
  obs::ResetMetrics();
  ASSERT_FALSE(obs::MetricsEnabled());
  ASSERT_FALSE(obs::TracingEnabled());
  serve::InferenceEngine engine(fx.model, serve::EngineConfig{});
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine.Submit(fx.prepared[i]).value());
  }
  for (std::future<int>& f : futures) f.get();
  engine.Shutdown();
  // With metrics, tracing, and the access log all off, no per-request
  // latency sketch is populated (the cost contract: gates only).
  EXPECT_EQ(obs::SnapshotSketch(obs::names::kServeLatencyNs).count, 0u);
  EXPECT_EQ(obs::SnapshotSketch(obs::names::kServeStageForwardNs).count, 0u);
  // The always-on coarse counters still tick.
  EXPECT_GT(obs::CounterValue(obs::names::kServeRequests), 0u);
}

}  // namespace
}  // namespace hap
