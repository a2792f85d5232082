#include "graph/datasets.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/table.h"
#include "graph/generators.h"

namespace hap {

double GraphDataset::AverageNodes() const {
  if (graphs.empty()) return 0.0;
  double total = 0.0;
  for (const Graph& g : graphs) total += g.num_nodes();
  return total / static_cast<double>(graphs.size());
}

int GraphDataset::MaxNodes() const {
  int best = 0;
  for (const Graph& g : graphs) best = std::max(best, g.num_nodes());
  return best;
}

Split SplitIndices(int n, Rng* rng, double train_fraction,
                   double val_fraction) {
  HAP_CHECK_GT(n, 0);
  HAP_CHECK(train_fraction + val_fraction < 1.0 + 1e-9);
  std::vector<int> order = RandomPermutation(n, rng);
  const int train_end = static_cast<int>(std::round(n * train_fraction));
  const int val_end =
      train_end + static_cast<int>(std::round(n * val_fraction));
  Split split;
  split.train.assign(order.begin(), order.begin() + std::min(train_end, n));
  split.val.assign(order.begin() + std::min(train_end, n),
                   order.begin() + std::min(val_end, n));
  split.test.assign(order.begin() + std::min(val_end, n), order.end());
  return split;
}

namespace {

/// Ensures connectivity by bridging components with random edges.
void MakeConnected(Graph* g, Rng* rng) {
  while (!g->IsConnected()) {
    std::vector<int> component = g->ComponentOf(0);
    std::vector<bool> inside(g->num_nodes(), false);
    for (int u : component) inside[u] = true;
    std::vector<int> outside;
    for (int u = 0; u < g->num_nodes(); ++u) {
      if (!inside[u]) outside.push_back(u);
    }
    g->AddEdge(component[rng->UniformInt(static_cast<int>(component.size()))],
               outside[rng->UniformInt(static_cast<int>(outside.size()))]);
  }
}

/// Sprinkles `p` random extra edges so class boundaries are not trivially
/// separable from density alone.
void AddEdgeNoise(Graph* g, double p, Rng* rng) {
  const int n = g->num_nodes();
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (!g->HasEdge(u, v) && rng->Bernoulli(p)) g->AddEdge(u, v);
    }
  }
}

/// Planted-partition communities of the given sizes, connected.
Graph CommunityGraph(const std::vector<int>& sizes, double p_in, double p_out,
                     Rng* rng) {
  Graph g = PlantedPartition(sizes, p_in, p_out, rng);
  MakeConnected(&g, rng);
  return g;
}

// MUTAG-like atom labels.
constexpr int kCarbon = 0;
constexpr int kNitrogen = 1;
constexpr int kOxygen = 2;

/// Nitro group -NO2: node 0 is the attachment point (N), nodes 1-2 are O.
Graph NitroMotif() {
  Graph motif(3);
  motif.set_node_label(0, kNitrogen);
  motif.set_node_label(1, kOxygen);
  motif.set_node_label(2, kOxygen);
  motif.AddEdge(0, 1);
  motif.AddEdge(0, 2);
  return motif;
}

/// Random short carbon chain with an occasional halogen tip.
Graph CarbonChain(int length, Rng* rng) {
  Graph chain = Path(length);
  for (int u = 0; u < length; ++u) chain.set_node_label(u, kCarbon);
  if (length > 1 && rng->Bernoulli(0.3)) {
    chain.set_node_label(length - 1, 3 + rng->UniformInt(4));  // F/Cl/Br/I
  }
  return chain;
}

}  // namespace

GraphDataset MakeImdbBinaryLike(int num_graphs, Rng* rng) {
  GraphDataset ds;
  ds.name = "IMDB-B*";
  ds.num_classes = 2;
  ds.feature_spec = {FeatureKind::kDegreeOneHot, 16, 0};
  ds.graphs.reserve(num_graphs);
  for (int i = 0; i < num_graphs; ++i) {
    const int label = i % 2;
    Graph g;
    if (label == 0) {
      // One dense genre community around the ego.
      const int n = rng->UniformInt(10, 24);
      g = ConnectedErdosRenyi(n, rng->Uniform(0.45, 0.6), rng);
    } else {
      // Two moderately dense communities bridged through the ego actor.
      const int n1 = rng->UniformInt(6, 13);
      const int n2 = rng->UniformInt(6, 13);
      g = CommunityGraph({n1, n2}, rng->Uniform(0.5, 0.65), 0.04, rng);
    }
    AddEdgeNoise(&g, 0.02, rng);
    g.set_label(label);
    ds.graphs.push_back(std::move(g));
  }
  return ds;
}

GraphDataset MakeImdbMultiLike(int num_graphs, Rng* rng) {
  GraphDataset ds;
  ds.name = "IMDB-M*";
  ds.num_classes = 3;
  ds.feature_spec = {FeatureKind::kDegreeOneHot, 16, 0};
  ds.graphs.reserve(num_graphs);
  for (int i = 0; i < num_graphs; ++i) {
    const int label = i % 3;
    const int communities = label + 1;
    std::vector<int> sizes(communities);
    for (int& s : sizes) s = rng->UniformInt(4, 8);
    Graph g = CommunityGraph(sizes, rng->Uniform(0.55, 0.7), 0.05, rng);
    AddEdgeNoise(&g, 0.02, rng);
    g.set_label(label);
    ds.graphs.push_back(std::move(g));
  }
  return ds;
}

GraphDataset MakeCollabLike(int num_graphs, Rng* rng) {
  GraphDataset ds;
  ds.name = "COLLAB*";
  ds.num_classes = 3;
  ds.feature_spec = {FeatureKind::kDegreeOneHot, 32, 0};
  ds.graphs.reserve(num_graphs);
  for (int i = 0; i < num_graphs; ++i) {
    const int label = i % 3;
    // Mean degrees of the three styles deliberately overlap so the class
    // is carried by collaboration *topology* (homogeneous vs hub-dominated
    // vs modular), not by a trivial degree histogram.
    Graph g;
    if (label == 0) {
      // High-energy physics style: homogeneous dense collaborations.
      const int n = rng->UniformInt(25, 50);
      g = ConnectedErdosRenyi(n, rng->Uniform(0.15, 0.35), rng);
    } else if (label == 1) {
      // Condensed matter style: hub-dominated preferential attachment.
      const int n = rng->UniformInt(25, 60);
      g = BarabasiAlbert(n, rng->UniformInt(2, 5), rng);
    } else {
      // Astro style: modular groups.
      const int k = rng->UniformInt(3, 5);
      std::vector<int> sizes(k);
      for (int& s : sizes) s = rng->UniformInt(7, 14);
      g = CommunityGraph(sizes, rng->Uniform(0.35, 0.55), 0.04, rng);
    }
    AddEdgeNoise(&g, 0.01, rng);
    g.set_label(label);
    ds.graphs.push_back(std::move(g));
  }
  return ds;
}

GraphDataset MakeMutagLike(int num_graphs, Rng* rng) {
  GraphDataset ds;
  ds.name = "MUTAG*";
  ds.num_classes = 2;
  ds.feature_spec = {FeatureKind::kNodeLabelOneHot, 7, 0};
  ds.graphs.reserve(num_graphs);
  const Graph nitro = NitroMotif();
  for (int i = 0; i < num_graphs; ++i) {
    const int label = i % 2;
    // Aromatic carbon ring backbone. Rings have 6 or 7 atoms so that the
    // "opposite" placement below is genuinely distant (offset 3 keeps the
    // two nitro groups >= 4 bonds apart on every ring size).
    const int ring = rng->UniformInt(0, 1) == 0 ? 6 : 7;
    Graph g = Cycle(ring);
    for (int u = 0; u < ring; ++u) g.set_node_label(u, kCarbon);
    g.set_label(label);
    // Both classes carry two nitro groups — only their relative ring
    // position differs (adjacent = mutagenic-like, opposite = not). The
    // motif content and size distribution are identical across classes, so
    // only a method sensitive to higher-order structure separates them.
    const int first = rng->UniformInt(ring);
    const int second = label == 1 ? (first + 1) % ring : (first + 3) % ring;
    // The motif bonds through a bridge edge: append nitro, connect N-C.
    for (int attach : {first, second}) {
      const int n_before = g.num_nodes();
      Graph merged(n_before + nitro.num_nodes());
      merged.set_label(g.label());
      for (int u = 0; u < n_before; ++u) merged.set_node_label(u, g.node_label(u));
      for (const auto& [u, v] : g.Edges()) merged.AddEdge(u, v);
      for (int u = 0; u < nitro.num_nodes(); ++u) {
        merged.set_node_label(n_before + u, nitro.node_label(u));
      }
      for (const auto& [u, v] : nitro.Edges()) {
        merged.AddEdge(n_before + u, n_before + v);
      }
      merged.AddEdge(attach, n_before);  // ring carbon — N bond
      g = std::move(merged);
    }
    // Random chain decorations (shared across classes).
    const int decorations = rng->UniformInt(0, 2);
    for (int d = 0; d < decorations; ++d) {
      Graph chain = CarbonChain(rng->UniformInt(1, 3), rng);
      g = AttachMotif(g, chain, rng->UniformInt(ring));
    }
    ds.graphs.push_back(std::move(g));
  }
  return ds;
}

GraphDataset MakeProteinsLike(int num_graphs, Rng* rng) {
  GraphDataset ds;
  ds.name = "PROTEINS*";
  ds.num_classes = 2;
  ds.feature_spec = {FeatureKind::kNodeLabelOneHot, 3, 0};
  ds.graphs.reserve(num_graphs);
  for (int i = 0; i < num_graphs; ++i) {
    const int label = i % 2;
    // A protein is a chain of secondary-structure elements. Enzymes
    // (label 0) are helix-rich; non-enzymes (label 1) are strand-rich.
    const double helix_fraction = label == 0 ? 0.7 : 0.3;
    const int segments = rng->UniformInt(3, 7);
    Graph g(0);
    int previous_tail = -1;
    for (int s = 0; s < segments; ++s) {
      const bool helix = rng->Bernoulli(helix_fraction);
      Graph segment;
      if (helix) {
        // Dense block: complete graph with a few random deletions.
        segment = Complete(rng->UniformInt(4, 6));
        for (const auto& [u, v] : segment.Edges()) {
          if (rng->Bernoulli(0.2)) segment.RemoveEdge(u, v);
        }
        MakeConnected(&segment, rng);
        for (int u = 0; u < segment.num_nodes(); ++u) {
          segment.set_node_label(u, 0);
        }
      } else {
        segment = Path(rng->UniformInt(4, 8));
        for (int u = 0; u < segment.num_nodes(); ++u) {
          segment.set_node_label(u, 1);
        }
      }
      const int offset = g.num_nodes();
      g = DisjointUnion(g, segment);
      if (previous_tail >= 0) {
        // Turn connector.
        g.set_node_label(offset, 2);
        g.AddEdge(previous_tail, offset);
      }
      previous_tail = g.num_nodes() - 1;
    }
    AddEdgeNoise(&g, 0.01, rng);
    g.set_label(label);
    ds.graphs.push_back(std::move(g));
  }
  return ds;
}

GraphDataset MakePtcLike(int num_graphs, Rng* rng) {
  GraphDataset ds;
  ds.name = "PTC*";
  ds.num_classes = 2;
  ds.feature_spec = {FeatureKind::kNodeLabelOneHot, 7, 0};
  ds.graphs.reserve(num_graphs);
  for (int i = 0; i < num_graphs; ++i) {
    const int true_label = i % 2;
    // Tree-like molecule skeleton.
    const int n = rng->UniformInt(8, 25);
    Graph g = RandomTree(n, rng);
    for (int u = 0; u < n; ++u) {
      g.set_node_label(u, rng->Bernoulli(0.8) ? kCarbon : 3 + rng->UniformInt(4));
    }
    // Every molecule gets a 5-ring; carcinogenic ones host a nitrogen in it.
    Graph ring = Cycle(5);
    for (int u = 0; u < 5; ++u) ring.set_node_label(u, kCarbon);
    if (true_label == 1) ring.set_node_label(2, kNitrogen);
    g = AttachMotif(g, ring, rng->UniformInt(n));
    // PTC is noisy: 15% of labels are flipped, capping achievable accuracy,
    // mirroring the low absolute numbers in Table 3.
    const int observed =
        rng->Bernoulli(0.15) ? 1 - true_label : true_label;
    g.set_label(observed);
    ds.graphs.push_back(std::move(g));
  }
  return ds;
}

StatusOr<GraphDataset> MakeDatasetByName(const std::string& name,
                                         int num_graphs, Rng* rng) {
  if (name == "imdb-b") return MakeImdbBinaryLike(num_graphs, rng);
  if (name == "imdb-m") return MakeImdbMultiLike(num_graphs, rng);
  if (name == "collab") return MakeCollabLike(num_graphs, rng);
  if (name == "mutag") return MakeMutagLike(num_graphs, rng);
  if (name == "proteins") return MakeProteinsLike(num_graphs, rng);
  if (name == "ptc") return MakePtcLike(num_graphs, rng);
  return Status::InvalidArgument("unknown dataset '" + name + "'");
}

std::vector<Graph> MakeAidsLikePool(int num_graphs, Rng* rng) {
  std::vector<Graph> pool;
  pool.reserve(num_graphs);
  for (int i = 0; i < num_graphs; ++i) {
    const int n = rng->UniformInt(2, 10);
    Graph g = RandomTree(n, rng);
    // Sparse extra bonds to form rings.
    if (n >= 4 && rng->Bernoulli(0.4)) {
      const int u = rng->UniformInt(n);
      const int v = rng->UniformInt(n);
      if (u != v && !g.HasEdge(u, v)) g.AddEdge(u, v);
    }
    for (int u = 0; u < n; ++u) {
      // Skewed atom-label distribution over a 10-symbol vocabulary.
      const double r = rng->Uniform();
      int label;
      if (r < 0.55) {
        label = 0;
      } else if (r < 0.8) {
        label = 1;
      } else {
        label = 2 + rng->UniformInt(8);
      }
      g.set_node_label(u, label);
    }
    pool.push_back(std::move(g));
  }
  return pool;
}

std::vector<Graph> MakeLinuxLikePool(int num_graphs, Rng* rng) {
  std::vector<Graph> pool;
  pool.reserve(num_graphs);
  for (int i = 0; i < num_graphs; ++i) {
    const int n = rng->UniformInt(4, 10);
    Graph g = RandomTree(n, rng);
    const int extra = rng->UniformInt(0, 2);
    for (int e = 0; e < extra; ++e) {
      const int u = rng->UniformInt(n);
      const int v = rng->UniformInt(n);
      if (u != v && !g.HasEdge(u, v)) g.AddEdge(u, v);
    }
    pool.push_back(std::move(g));
  }
  return pool;
}

std::string DatasetStatistics(const std::vector<GraphDataset>& datasets) {
  TextTable table({"Dataset", "#Graphs", "Max.V", "Avg.V", "#Classes"});
  for (const GraphDataset& ds : datasets) {
    table.AddRow({ds.name, std::to_string(ds.graphs.size()),
                  std::to_string(ds.MaxNodes()),
                  TextTable::Num(ds.AverageNodes(), 1),
                  std::to_string(ds.num_classes)});
  }
  return table.ToString();
}

}  // namespace hap
