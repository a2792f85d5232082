// Content-keyed cache of PreparedGraph objects for the network front
// end (docs/SERVING.md "Network front end & SLOs").
//
// Network requests arrive as graph *text*, so two identical requests
// decode into two distinct Graph objects — and the engine's
// pointer-identity coalescing, plus GraphLevel's operator caches, would
// both miss. This cache closes that gap: graphs are keyed on a
// canonical byte encoding of their content (node count, node labels,
// sorted weighted edge list — the graph *label* is excluded, it is the
// thing being predicted), and hits return the same
// shared_ptr<const PreparedGraph>. Identical wire requests therefore
// share one prepared graph, so
//   * PrepareGraph (featurise + WarmCaches, which builds the operators
//     propagation reads) runs once per distinct graph, as does the build
//     of any other operator, on its first read, and
//   * the engine sees pointer-equal graphs and coalesces them into one
//     forward per batch.
//
// Keys are full canonical bytes, not a 64-bit digest: a hash collision
// here would silently serve the wrong graph's prediction, which is a
// correctness bug, not a performance one. The unordered_map still
// hashes the byte string internally — collisions there fall back to
// byte comparison, as they should.
//
// Eviction is LRU at `capacity` entries. Evicted entries only drop the
// cache's reference; requests in flight keep theirs alive.
#ifndef HAP_SERVE_GRAPH_CACHE_H_
#define HAP_SERVE_GRAPH_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "graph/featurize.h"
#include "graph/graph.h"
#include "train/prepared.h"

namespace hap::serve {

class GraphCache {
 public:
  /// `capacity` = max cached graphs (>= 1); `spec` is the feature spec
  /// every lookup prepares with (must match the served model's).
  GraphCache(size_t capacity, const FeatureSpec& spec);

  /// Returns the cached PreparedGraph for a graph with `g`'s content,
  /// preparing (featurise + WarmCaches) on a miss. Thread-safe; ticks
  /// serve.cache.{hit,miss,evicted}.
  std::shared_ptr<const PreparedGraph> Prepare(const Graph& g);

  size_t size() const;

  /// Canonical content key (exposed for tests): graph label excluded,
  /// so relabelled copies of one graph share an entry.
  static std::string CanonicalKey(const Graph& g);

 private:
  const size_t capacity_;
  const FeatureSpec spec_;

  mutable std::mutex mu_;
  // MRU at front. The map stores iterators into the list.
  std::list<std::pair<std::string, std::shared_ptr<const PreparedGraph>>>
      lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
};

}  // namespace hap::serve

#endif  // HAP_SERVE_GRAPH_CACHE_H_
