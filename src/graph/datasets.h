#ifndef HAP_GRAPH_DATASETS_H_
#define HAP_GRAPH_DATASETS_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/featurize.h"
#include "graph/graph.h"

namespace hap {

/// A labeled graph-classification corpus plus its featurisation rule.
struct GraphDataset {
  std::string name;
  std::vector<Graph> graphs;
  int num_classes = 0;
  FeatureSpec feature_spec;

  /// Mean node count (for the Table 2 style statistics printout).
  double AverageNodes() const;
  int MaxNodes() const;
};

/// Train/validation/test index split.
struct Split {
  std::vector<int> train;
  std::vector<int> val;
  std::vector<int> test;
};

/// Randomly partitions [0, n) into train/val/test with the paper's 8:1:1
/// ratio (Sec. 6.1.3) unless overridden.
Split SplitIndices(int n, Rng* rng, double train_fraction = 0.8,
                   double val_fraction = 0.1);

// ---------------------------------------------------------------------------
// Synthetic stand-ins for the six TU graph-classification datasets
// (Table 2 / Table 3). Each generator reproduces the dataset's statistics
// (graph count, size range, class count, feature type) and its structural
// discriminant as discussed in Sec. 6.2 — see DESIGN.md "Substitutions".
// `num_graphs` can be reduced for quick runs; class balance is uniform.
// ---------------------------------------------------------------------------

/// IMDB-B-like: ego networks of movie collaborations; 2 classes
/// distinguished by one dense genre community vs two bridged communities.
/// Degree one-hot features.
GraphDataset MakeImdbBinaryLike(int num_graphs, Rng* rng);

/// IMDB-M-like: 3 classes with 1/2/3 genre communities.
GraphDataset MakeImdbMultiLike(int num_graphs, Rng* rng);

/// COLLAB-like: larger scientific-collaboration ego graphs; 3 classes with
/// different collaboration topology (clique-heavy, hub-and-spoke, modular).
GraphDataset MakeCollabLike(int num_graphs, Rng* rng);

/// MUTAG-like: nitroaromatic molecules. Both classes contain the common
/// nitro motif; the class depends on the *relative placement* of two motifs
/// on the carbon ring (adjacent vs opposite) — exactly the high-order
/// dependency the paper credits HAP with capturing (Sec. 6.2). Node-label
/// one-hot features (7 atom types).
GraphDataset MakeMutagLike(int num_graphs, Rng* rng);

/// PROTEINS-like: secondary-structure graphs; classes differ in the mix of
/// helix-like dense blocks vs sheet-like strands. 3 node labels.
GraphDataset MakeProteinsLike(int num_graphs, Rng* rng);

/// PTC-like: small molecules where carcinogenicity correlates with a rare
/// ring-amine pattern, plus 15% label noise (PTC is notoriously hard —
/// paper accuracies top out below 70%).
GraphDataset MakePtcLike(int num_graphs, Rng* rng);

/// The six generators above by their command-line names: imdb-b, imdb-m,
/// collab, mutag, proteins, ptc. Any other name is InvalidArgument.
StatusOr<GraphDataset> MakeDatasetByName(const std::string& name,
                                         int num_graphs, Rng* rng);

// ---------------------------------------------------------------------------
// Small-graph pools with <= 10 nodes for GED-supervised similarity learning
// (AIDS / LINUX rows of Table 2, Fig. 5). Exact GED over these sizes is
// computable with our A* solver, matching the paper's protocol.
// ---------------------------------------------------------------------------

/// AIDS-like: tiny labeled molecule graphs, 2..10 nodes, 10 atom-label
/// vocabulary, one-hot node-label features.
std::vector<Graph> MakeAidsLikePool(int num_graphs, Rng* rng);

/// LINUX-like: tiny unlabeled program-dependence graphs, 4..10 nodes,
/// constant features.
std::vector<Graph> MakeLinuxLikePool(int num_graphs, Rng* rng);

/// Returns the datasets' statistics table (mirrors Table 2) for a list of
/// classification datasets; used by the docs/bench printouts.
std::string DatasetStatistics(const std::vector<GraphDataset>& datasets);

}  // namespace hap

#endif  // HAP_GRAPH_DATASETS_H_
