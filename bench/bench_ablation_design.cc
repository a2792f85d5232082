// Ablation of HAP's own design choices (the DESIGN.md list beyond the
// paper's Table 5):
//   * GCont guidance on/off (attention on content vs on raw features)
//   * Gumbel soft sampling on/off, and its edge-density effect
//   * bilinear (adaptive) vs additive (paper-literal, static) MOA logits
//   * order-invariant vs paper-literal attention relaxation
//   * hierarchical vs final-level-only matching loss
// Classification runs on MUTAG*-like molecules (where structure matters
// most); matching on |V| = 30 pairs. Edge densities of the coarsened
// adjacency are measured with and without soft sampling.

#include <cstdio>

#include "bench_common.h"
#include "common/table.h"
#include "core/coarsening.h"
#include "graph/generators.h"
#include "matching/pair_data.h"
#include "tensor/sparse.h"
#include "train/classifier.h"
#include "train/matching_trainer.h"
#include "train/pair_scorer.h"

namespace hap::bench {
namespace {

struct Variant {
  std::string name;
  bool use_gcont = true;
  bool use_gumbel = true;
  bool bilinear = true;
  bool literal_relaxation = false;
  bool final_level_only = false;
};

int Main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_ablation_design.json";
  const int graphs = FastOr(40, 150);
  const int pairs = FastOr(20, 80);
  const int epochs = FastOr(4, 30);
  const int seeds = FastOr(1, 3);
  const int hidden = 32;

  Rng data_rng(20240704);
  GraphDataset dataset = MakeMutagLike(graphs, &data_rng);
  auto class_data = PrepareDataset(dataset);
  Split class_split =
      SplitIndices(static_cast<int>(class_data.size()), &data_rng);
  const FeatureSpec match_spec{FeatureKind::kRelativeDegreeBuckets, 12, 0};
  auto match_data =
      PreparePairs(MakeMatchingPairs(pairs, 30, &data_rng), match_spec);
  Split match_split = SplitIndices(pairs, &data_rng);

  const std::vector<Variant> variants = {
      {"HAP (full)"},
      {"w/o GCont", false, true, true, false, false},
      {"w/o Gumbel sampling", true, false, true, false, false},
      {"additive MOA (Eq.14 literal)", true, true, false, false, false},
      {"literal relaxation (Claim 3)", true, true, true, true, false},
      {"final-level loss only", true, true, true, false, true},
  };

  JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", std::string("ablation_design"));
  json.Field("epochs", epochs);
  json.Field("seeds", seeds);
  json.BeginArray("results");
  TextTable table({"Variant", "MUTAG* acc (%)", "Match |V|=30 (%)"});
  for (const Variant& variant : variants) {
    auto make_config = [&](int feature_dim) {
      HapConfig config = DefaultHapConfig(feature_dim, hidden);
      config.encoder = EncoderKind::kGat;
      config.use_gcont = variant.use_gcont;
      config.use_gumbel = variant.use_gumbel;
      return config;
    };
    auto tweak = [&](HierarchicalEmbedder*) {};
    (void)tweak;

    // Classification: best validation over restarts.
    double best_val = -1.0, class_acc = 0.0;
    for (int seed = 0; seed < seeds; ++seed) {
      Rng rng(0xde5169 + seed * 101);
      HapConfig config = make_config(dataset.feature_spec.FeatureDim());
      // The bilinear/relaxation switches live on the coarsening config,
      // reachable through HapConfig extension below.
      CoarseningConfig proto;
      proto.bilinear_moa = variant.bilinear;
      proto.paper_literal_relaxation = variant.literal_relaxation;
      config.moa_prototype = proto;
      GraphClassifier model(MakeHapModel(config, &rng), dataset.num_classes,
                            hidden, &rng);
      TrainConfig tc;
      tc.epochs = epochs;
      tc.patience = epochs;
      tc.seed = 17 + seed;
      ClassificationResult result =
          TrainClassifier(&model, class_data, class_split, tc);
      if (result.val_accuracy > best_val) {
        best_val = result.val_accuracy;
        class_acc = result.test_accuracy;
      }
    }

    // Matching.
    double match_best_val = -1.0, match_acc = 0.0;
    for (int seed = 0; seed < seeds; ++seed) {
      Rng rng(0xab5169 + seed * 101);
      HapConfig config = make_config(match_spec.FeatureDim());
      CoarseningConfig proto;
      proto.bilinear_moa = variant.bilinear;
      proto.paper_literal_relaxation = variant.literal_relaxation;
      config.moa_prototype = proto;
      EmbedderPairScorer scorer(MakeHapModel(config, &rng));
      TrainConfig tc;
      tc.epochs = epochs / 2 + 1;
      tc.patience = epochs;
      tc.lr = 0.005f;
      tc.seed = 17 + seed;
      tc.final_level_only = variant.final_level_only;
      MatchingTrainResult result =
          TrainMatcher(&scorer, match_data, match_split, tc);
      if (result.val_accuracy > match_best_val) {
        match_best_val = result.val_accuracy;
        match_acc = result.test_accuracy;
      }
    }

    table.AddRow({variant.name, TextTable::Num(100.0 * class_acc),
                  TextTable::Num(100.0 * match_acc)});
    json.BeginObject();
    json.Field("variant", variant.name);
    json.Field("mutag_accuracy_pct", 100.0 * class_acc);
    json.Field("match_v30_accuracy_pct", 100.0 * match_acc);
    json.EndObject();
    std::fprintf(stderr, "  [design] %s: %.2f%% / %.2f%%\n",
                 variant.name.c_str(), 100.0 * class_acc, 100.0 * match_acc);
  }
  json.EndArray();
  std::printf("HAP design-choice ablation\n%s\n", table.ToString().c_str());

  // Soft sampling's density effect, measured on real coarsened levels.
  {
    Rng rng(7);
    Graph g = ConnectedErdosRenyi(40, 0.2, &rng);
    Tensor h = NodeFeatures(g, {FeatureKind::kDegreeOneHot, 16, 0});
    CoarseningConfig dense_config;
    dense_config.in_features = 16;
    dense_config.num_clusters = 10;
    dense_config.use_gumbel = false;
    CoarseningModule dense_module(dense_config, &rng);
    CoarseningConfig sparse_config = dense_config;
    sparse_config.use_gumbel = true;
    CoarseningModule sparse_module(sparse_config, &rng);
    const double dense_density = EdgeDensity(
        dense_module.Forward(h, GraphLevel(g.AdjacencyMatrix()))
            .level.adjacency(),
        1e-3f);
    const double sampled_density = EdgeDensity(
        sparse_module.Forward(h, GraphLevel(g.AdjacencyMatrix()))
            .level.adjacency(),
        1e-3f);
    std::printf(
        "Soft sampling (Eq. 19) edge density on A': without %.3f, with "
        "%.3f — the sparsification that justifies the O(|E|) message-"
        "passing path (Sec. 4.4.4).\n",
        dense_density, sampled_density);
    json.BeginObject("soft_sampling_edge_density");
    json.Field("without_gumbel", dense_density);
    json.Field("with_gumbel", sampled_density);
    json.EndObject();
  }
  json.EndObject();
  if (json.WriteFile(json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::printf("FAILED to write %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace hap::bench

int main(int argc, char** argv) { return hap::bench::Main(argc, argv); }
