// hap_tool: a small command-line front end over the library, showing how a
// downstream user drives it without writing C++ against the API.
//
// Usage:
//   hap_tool classify [--dataset imdb-b|imdb-m|collab|mutag|proteins|ptc]
//                     [--method <Table-3 name>] [--graphs N] [--epochs N]
//                     [--hidden N] [--seed N] [--save-dataset path]
//                     [--checkpoint path] [--log path.jsonl]
//   hap_tool methods                  # list available methods
//   hap_tool ged <n1> <n2> [--seed N] # compare GED algorithms on two
//                                     # random molecule-like graphs
//   hap_tool metrics-dump <snapshot.json>  # pretty-print a HAP_METRICS
//                                          # / exporter JSON snapshot
//
// Examples:
//   hap_tool classify --dataset mutag --method HAP-GAT --epochs 30
//   hap_tool classify --dataset collab --method DiffPool
//   hap_tool ged 8 9
//   HAP_METRICS=/tmp/m.json hap_serve ... && hap_tool metrics-dump /tmp/m.json

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/flags.h"
#include "common/json.h"
#include "ged/ged.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "obs/sketch.h"
#include "tensor/serialize.h"
#include "train/classifier.h"
#include "train/metrics.h"
#include "train/model_zoo.h"

namespace {

using namespace hap;

constexpr char kUsage[] =
    "usage:\n"
    "  hap_tool classify [--dataset imdb-b|imdb-m|collab|mutag|proteins|ptc]\n"
    "                    [--method <Table-3 name>] [--graphs N] [--epochs N]\n"
    "                    [--hidden N] [--seed N] [--save-dataset path]\n"
    "                    [--checkpoint path] [--log path.jsonl]\n"
    "                    [--coarsen-mode dense|topk|auto] [--topk K]\n"
    "  hap_tool methods\n"
    "  hap_tool ged <n1> <n2> [--seed N]\n"
    "  hap_tool metrics-dump <snapshot.json>\n";

/// Extracts the value from a fallible flag lookup, or prints the error plus
/// usage and exits 2. Flag parsing is strict: mistyped flags must not be
/// silently dropped (a misspelled --checkpoint used to train for the full
/// run and then save nothing).
template <typename T>
T FlagValueOrDie(const StatusOr<T>& result) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.status().message().c_str(), kUsage);
    std::exit(2);
  }
  return result.value();
}

Flags ParseFlagsOrDie(int argc, char** argv, int first,
                      const std::vector<std::string>& allowed) {
  StatusOr<Flags> flags = Flags::Parse(argc, argv, first, allowed);
  return FlagValueOrDie(flags);
}

int RunClassify(int argc, char** argv) {
  Flags flags = ParseFlagsOrDie(
      argc, argv, 2,
      {"dataset", "method", "graphs", "epochs", "hidden", "seed",
       "save-dataset", "checkpoint", "log", "coarsen-mode", "topk"});
  const std::string dataset_name = flags.GetString("dataset", "mutag");
  const std::string method = flags.GetString("method", "HAP");
  const int graphs = FlagValueOrDie(flags.GetInt("graphs", 150));
  const int epochs = FlagValueOrDie(flags.GetInt("epochs", 30));
  const int hidden = FlagValueOrDie(flags.GetInt("hidden", 32));
  const uint64_t seed = FlagValueOrDie(flags.GetUint64("seed", 7));
  if (!IsKnownMethod(method)) {
    std::fprintf(stderr, "unknown method '%s'; run `hap_tool methods`\n",
                 method.c_str());
    return 2;
  }
  const std::string mode_text = flags.GetString("coarsen-mode", "dense");
  CoarsenMode coarsen_mode;
  if (!ParseCoarsenMode(mode_text, &coarsen_mode)) {
    std::fprintf(stderr, "unknown --coarsen-mode '%s' (dense|topk|auto)\n%s",
                 mode_text.c_str(), kUsage);
    return 2;
  }
  const int topk = FlagValueOrDie(flags.GetInt("topk", 0, 1));

  Rng rng(seed);
  StatusOr<GraphDataset> made = MakeDatasetByName(dataset_name, graphs, &rng);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().message().c_str());
    return 2;
  }
  GraphDataset dataset = std::move(made).value();
  std::printf("%s\n", DatasetStatistics({dataset}).c_str());
  const std::string save_path = flags.GetString("save-dataset", "");
  if (!save_path.empty()) {
    Status status = SaveDataset(dataset, save_path);
    std::printf("dataset -> %s (%s)\n", save_path.c_str(),
                status.ToString().c_str());
  }

  auto data = PrepareDataset(dataset);
  Split split = SplitIndices(static_cast<int>(data.size()), &rng);
  GraphClassifier model(
      MakeEmbedderByName(method, dataset.feature_spec.FeatureDim(), hidden,
                         &rng),
      dataset.num_classes, hidden, &rng);
  model.set_coarsen_mode(coarsen_mode, topk);
  std::printf("method %s: %lld parameters (coarsen-mode %s)\n", method.c_str(),
              static_cast<long long>(model.NumParameters()),
              CoarsenModeName(coarsen_mode));

  TrainConfig config;
  config.epochs = epochs;
  config.patience = epochs;
  config.verbose = true;
  // Per-epoch JSONL telemetry (docs/OBSERVABILITY.md).
  config.log_path = flags.GetString("log", "");
  ClassificationResult result = TrainClassifier(&model, data, split, config);
  std::printf("\nbest epoch %d: train %.2f%%  val %.2f%%  test %.2f%%\n",
              result.best_epoch, 100.0 * result.train_accuracy,
              100.0 * result.val_accuracy, 100.0 * result.test_accuracy);

  // Confusion matrix over the test split.
  model.set_training(false);
  ConfusionMatrix confusion(dataset.num_classes);
  for (int index : split.test) {
    confusion.Add(data[index].label, model.Predict(data[index]));
  }
  std::printf("%smacro-F1 %.3f\n", confusion.ToString().c_str(),
              confusion.MacroF1());

  const std::string checkpoint = flags.GetString("checkpoint", "");
  if (!checkpoint.empty()) {
    Status status = SaveModule(model, checkpoint);
    std::printf("checkpoint -> %s (%s)\n", checkpoint.c_str(),
                status.ToString().c_str());
  }
  return 0;
}

int RunGed(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: hap_tool ged <n1> <n2> [--seed N]\n");
    return 2;
  }
  const int n1 = std::atoi(argv[2]);
  const int n2 = std::atoi(argv[3]);
  Flags flags = ParseFlagsOrDie(argc, argv, 4, {"seed"});
  Rng rng(FlagValueOrDie(flags.GetUint64("seed", 7)));
  auto pool = MakeAidsLikePool(2, &rng);
  // Resize by regenerating until sizes match the request (pools are 2-10).
  while (pool[0].num_nodes() != n1 || pool[1].num_nodes() != n2) {
    pool = MakeAidsLikePool(2, &rng);
    if (n1 < 2 || n1 > 10 || n2 < 2 || n2 > 10) {
      std::fprintf(stderr, "sizes must be in [2, 10]\n");
      return 2;
    }
  }
  const Graph& a = pool[0];
  const Graph& b = pool[1];
  std::printf("A: %s\nB: %s\n", a.ToString().c_str(), b.ToString().c_str());
  const GedResult exact = ExactGed(a, b);
  std::printf("exact A*   : %.0f (%lld expansions)\n", exact.cost,
              static_cast<long long>(exact.expansions));
  std::printf("Beam1      : %.0f\n", BeamGed(a, b, 1).cost);
  std::printf("Beam80     : %.0f\n", BeamGed(a, b, 80).cost);
  std::printf("Hungarian  : %.0f\n", BipartiteGedHungarian(a, b).cost);
  std::printf("VJ         : %.0f\n", BipartiteGedVj(a, b).cost);
  return 0;
}

// --- metrics-dump ---------------------------------------------------

// Rebuilds the dense bucket array of a histogram/sketch snapshot from
// the sparse bucket_low/bucket_count pair the JSON dump carries. The
// low edge identifies the bucket: feeding it back through the bucket
// function recovers the index.
template <typename SnapshotT, typename BucketFn>
bool RebuildBuckets(const JsonValue& entry, int num_buckets, BucketFn bucket_of,
                    SnapshotT* snap) {
  const JsonValue* name = entry.Find("name");
  const JsonValue* count = entry.Find("count");
  const JsonValue* sum = entry.Find("sum");
  const JsonValue* lows = entry.Find("bucket_low");
  const JsonValue* counts = entry.Find("bucket_count");
  if (name == nullptr || !name->is_string() || count == nullptr ||
      !count->is_number() || sum == nullptr || !sum->is_number() ||
      lows == nullptr || !lows->is_array() || counts == nullptr ||
      !counts->is_array() || lows->array().size() != counts->array().size()) {
    return false;
  }
  snap->name = name->string_value();
  snap->count = static_cast<uint64_t>(count->number_value());
  snap->sum = static_cast<uint64_t>(sum->number_value());
  snap->buckets.assign(num_buckets, 0);
  for (size_t i = 0; i < lows->array().size(); ++i) {
    if (!lows->array()[i].is_number() || !counts->array()[i].is_number()) {
      return false;
    }
    const int b =
        bucket_of(static_cast<uint64_t>(lows->array()[i].number_value()));
    snap->buckets[b] +=
        static_cast<uint64_t>(counts->array()[i].number_value());
  }
  return true;
}

int RunMetricsDump(int argc, char** argv) {
  if (argc < 3 || argv[2][0] == '-') {
    std::fprintf(stderr, "metrics-dump needs a snapshot path\n%s", kUsage);
    return 2;
  }
  const std::string path = argv[2];
  Flags flags = ParseFlagsOrDie(argc, argv, 3, {});
  (void)flags;

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  StatusOr<JsonValue> parsed = ParseJson(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 parsed.status().message().c_str());
    return 1;
  }
  // Accept both a raw HAP_METRICS snapshot and the exporter's JSON
  // ({"cumulative":<snapshot>,...}).
  const JsonValue* top = &parsed.value();
  const JsonValue* root = top;
  if (const JsonValue* cumulative = root->Find("cumulative");
      cumulative != nullptr) {
    root = cumulative;
  }

  const JsonValue* counters = root->Find("counters");
  if (counters != nullptr && counters->is_array()) {
    std::vector<std::pair<std::string, uint64_t>> rows;
    for (const JsonValue& c : counters->array()) {
      const JsonValue* name = c.Find("name");
      const JsonValue* value = c.Find("value");
      if (name == nullptr || value == nullptr) continue;
      rows.emplace_back(name->string_value(),
                        static_cast<uint64_t>(value->number_value()));
    }
    std::sort(rows.begin(), rows.end());
    std::printf("counters (%zu):\n", rows.size());
    for (const auto& [name, value] : rows) {
      std::printf("  %-44s %20llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }
  const JsonValue* gauges = root->Find("gauges");
  if (gauges != nullptr && gauges->is_array() && !gauges->array().empty()) {
    std::printf("gauges (%zu):\n", gauges->array().size());
    for (const JsonValue& g : gauges->array()) {
      const JsonValue* name = g.Find("name");
      const JsonValue* value = g.Find("value");
      if (name == nullptr || value == nullptr) continue;
      std::printf("  %-44s %20.6g\n", name->string_value().c_str(),
                  value->number_value());
    }
  }
  const JsonValue* histograms = root->Find("histograms");
  if (histograms != nullptr && histograms->is_array() &&
      !histograms->array().empty()) {
    std::printf(
        "histograms (%zu):      count          mean           p50           "
        "p90           p99\n",
        histograms->array().size());
    for (const JsonValue& entry : histograms->array()) {
      obs::HistogramSnapshot h;
      if (!RebuildBuckets(entry, obs::kHistogramBuckets, obs::HistogramBucket,
                          &h)) {
        std::fprintf(stderr, "  (malformed histogram entry skipped)\n");
        continue;
      }
      std::printf("  %-20s %7llu %13.1f %13.1f %13.1f %13.1f\n",
                  h.name.c_str(), static_cast<unsigned long long>(h.count),
                  h.Mean(), h.QuantileInterpolated(0.5),
                  h.QuantileInterpolated(0.9), h.QuantileInterpolated(0.99));
    }
  }
  const JsonValue* sketches = root->Find("sketches");
  if (sketches != nullptr && sketches->is_array() &&
      !sketches->array().empty()) {
    std::printf(
        "sketches (%zu):        count          mean           p50           "
        "p99          p999\n",
        sketches->array().size());
    for (const JsonValue& entry : sketches->array()) {
      obs::SketchSnapshot s;
      if (!RebuildBuckets(entry, obs::kSketchBuckets, obs::SketchBucket, &s)) {
        std::fprintf(stderr, "  (malformed sketch entry skipped)\n");
        continue;
      }
      std::printf("  %-20s %7llu %13.1f %13.1f %13.1f %13.1f\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  s.Mean(), s.Quantile(0.5), s.Quantile(0.99),
                  s.Quantile(0.999));
    }
  }
  // Exporter JSON can carry delta windows only (no cumulative bucket
  // arrays); its "interval_sketches" entries ship pre-computed
  // quantiles. Render those when the cumulative section yielded no
  // sketch block, so a delta-only dump still prints quantiles instead
  // of nothing.
  if (sketches == nullptr || !sketches->is_array() ||
      sketches->array().empty()) {
    const JsonValue* interval = top->Find("interval_sketches");
    if (interval != nullptr && interval->is_array() &&
        !interval->array().empty()) {
      std::printf(
          "interval sketches (%zu):  count         p50           p99"
          "          p999\n",
          interval->array().size());
      for (const JsonValue& entry : interval->array()) {
        const JsonValue* name = entry.Find("name");
        const JsonValue* count = entry.Find("count");
        const JsonValue* p50 = entry.Find("p50");
        const JsonValue* p99 = entry.Find("p99");
        const JsonValue* p999 = entry.Find("p999");
        if (name == nullptr || !name->is_string() || count == nullptr ||
            !count->is_number() || p50 == nullptr || !p50->is_number() ||
            p99 == nullptr || !p99->is_number() || p999 == nullptr ||
            !p999->is_number()) {
          std::fprintf(stderr, "  (malformed interval sketch skipped)\n");
          continue;
        }
        std::printf("  %-20s %7llu %13.1f %13.1f %13.1f\n",
                    name->string_value().c_str(),
                    static_cast<unsigned long long>(count->number_value()),
                    p50->number_value(), p99->number_value(),
                    p999->number_value());
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "methods") {
    for (const std::string& name : hap::ClassifierMethodNames()) {
      std::printf("%s\n", name.c_str());
    }
    std::printf("HAP-GAT\nMinCutPool\n");
    return 0;
  }
  if (command == "classify") return RunClassify(argc, argv);
  if (command == "ged") return RunGed(argc, argv);
  if (command == "metrics-dump") return RunMetricsDump(argc, argv);
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 2;
}
