#include "train/prepared.h"

namespace hap {

PreparedGraph PrepareGraph(const Graph& g, const FeatureSpec& spec) {
  PreparedGraph prepared;
  prepared.h = NodeFeatures(g, spec);
  prepared.level = GraphLevel(g.AdjacencyMatrix());
  // Build the propagation operators outside the training loop, so
  // concurrent workers mostly read a filled cache; any other operator is
  // built once, on its first read.
  prepared.level.WarmCaches();
  prepared.label = g.label();
  return prepared;
}

std::vector<PreparedGraph> PrepareDataset(const GraphDataset& dataset) {
  return PrepareGraphs(dataset.graphs, dataset.feature_spec);
}

std::vector<PreparedGraph> PrepareGraphs(const std::vector<Graph>& graphs,
                                         const FeatureSpec& spec) {
  std::vector<PreparedGraph> prepared;
  prepared.reserve(graphs.size());
  for (const Graph& g : graphs) prepared.push_back(PrepareGraph(g, spec));
  return prepared;
}

}  // namespace hap
