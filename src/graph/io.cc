#include "graph/io.h"

#include <fstream>
#include <sstream>

namespace hap {

void WriteGraph(const Graph& g, std::ostream* stream) {
  *stream << "graph " << g.num_nodes() << " " << g.label() << "\n";
  for (int u = 0; u < g.num_nodes(); ++u) {
    if (g.node_label(u) != 0) {
      *stream << "node " << u << " " << g.node_label(u) << "\n";
    }
  }
  for (const auto& [u, v] : g.Edges()) {
    const float w = g.EdgeWeight(u, v);
    if (w == 1.0f) {
      *stream << "edge " << u << " " << v << "\n";
    } else {
      *stream << "edge " << u << " " << v << " " << w << "\n";
    }
  }
}

StatusOr<Graph> ReadGraph(std::istream* stream) {
  std::string keyword;
  if (!(*stream >> keyword) || keyword != "graph") {
    return Status::InvalidArgument("expected 'graph' block");
  }
  int n = 0, label = 0;
  if (!(*stream >> n >> label) || n < 0) {
    return Status::InvalidArgument("malformed graph header");
  }
  Graph g(n);
  g.set_label(label);
  while (true) {
    const std::streampos before = stream->tellg();
    if (!(*stream >> keyword)) break;  // EOF ends the block.
    if (keyword == "node") {
      int u = 0, node_label = 0;
      if (!(*stream >> u >> node_label) || u < 0 || u >= n) {
        return Status::InvalidArgument("malformed node line");
      }
      g.set_node_label(u, node_label);
    } else if (keyword == "edge") {
      int u = 0, v = 0;
      if (!(*stream >> u >> v) || u < 0 || v < 0 || u >= n || v >= n ||
          u == v) {
        return Status::InvalidArgument("malformed edge line");
      }
      // Optional weight: peek at the rest of the line. A non-blank rest
      // must be exactly one float; anything else (junk, a second number,
      // an out-of-range value) is rejected, never read as weight 1.
      // Extraction fails on overflow and never yields inf or NaN.
      float weight = 1.0f;
      const int next = stream->peek();
      if (next == ' ' || next == '\t') {
        std::string rest;
        std::getline(*stream, rest);
        std::istringstream rest_stream(rest);
        if (!(rest_stream >> std::ws).eof() &&
            (!(rest_stream >> weight) || !(rest_stream >> std::ws).eof())) {
          return Status::InvalidArgument("malformed edge weight '" + rest +
                                         "'");
        }
      }
      // Graph stores absent edges as weight 0, so it takes only positive
      // weights.
      if (!(weight > 0.0f)) {
        return Status::InvalidArgument("edge weight must be positive");
      }
      g.AddEdge(u, v, weight);
    } else if (keyword == "graph") {
      // Start of the next block: rewind and stop.
      stream->clear();
      stream->seekg(before);
      break;
    } else {
      return Status::InvalidArgument("unexpected token '" + keyword +
                                     "' in graph block");
    }
  }
  return g;
}

Status SaveDataset(const GraphDataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::NotFound("cannot open " + path);
  std::string name = dataset.name;
  for (char& c : name) {
    if (c == ' ') c = '_';
  }
  out << "dataset " << name << " " << dataset.num_classes << "\n";
  for (const Graph& g : dataset.graphs) WriteGraph(g, &out);
  out.flush();
  if (!out.good()) return Status::Internal("dataset write failed");
  return Status::Ok();
}

StatusOr<GraphDataset> LoadDataset(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  std::string keyword;
  GraphDataset dataset;
  if (!(in >> keyword) || keyword != "dataset" || !(in >> dataset.name) ||
      !(in >> dataset.num_classes)) {
    return Status::InvalidArgument("malformed dataset header");
  }
  while (true) {
    // Peek for another graph block.
    const std::streampos before = in.tellg();
    std::string probe;
    if (!(in >> probe)) break;
    in.clear();
    in.seekg(before);
    if (probe != "graph") {
      return Status::InvalidArgument("unexpected token: " + probe);
    }
    StatusOr<Graph> g = ReadGraph(&in);
    if (!g.ok()) return g.status();
    dataset.graphs.push_back(std::move(g).value());
  }
  return dataset;
}

}  // namespace hap
