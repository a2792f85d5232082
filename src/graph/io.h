#ifndef HAP_GRAPH_IO_H_
#define HAP_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/datasets.h"
#include "graph/graph.h"

namespace hap {

/// Text formats for graph corpora.
///
/// Single graph ("edge list with header"):
///   graph <N> <label>
///   node <id> <node_label>      (optional; default label 0)
///   edge <u> <v> [weight]       (weight > 0; default 1)
///
/// Corpus files hold a `dataset <name> <num_classes>` line followed by any
/// number of graph blocks. This mirrors the information content of the TU
/// benchmark format so real datasets can be converted and dropped in when
/// available (see DESIGN.md "Substitutions").

/// Serialises one graph.
void WriteGraph(const Graph& g, std::ostream* stream);

/// Parses one graph block (starting at a `graph` line). Returns an error
/// on malformed input.
StatusOr<Graph> ReadGraph(std::istream* stream);

/// Serialises a whole classification dataset.
Status SaveDataset(const GraphDataset& dataset, const std::string& path);

/// Loads a dataset written by SaveDataset. The feature spec is not part of
/// the format; the caller assigns one after loading.
StatusOr<GraphDataset> LoadDataset(const std::string& path);

}  // namespace hap

#endif  // HAP_GRAPH_IO_H_
