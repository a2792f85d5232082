#include "serve/graph_cache.h"

#include <cstring>

#include "common/check.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace hap::serve {

namespace {

void AppendI32(std::string* out, int32_t v) {
  const auto u = static_cast<uint32_t>(v);
  out->push_back(static_cast<char>(u));
  out->push_back(static_cast<char>(u >> 8));
  out->push_back(static_cast<char>(u >> 16));
  out->push_back(static_cast<char>(u >> 24));
}

void AppendF32(std::string* out, float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  AppendI32(out, static_cast<int32_t>(u));
}

}  // namespace

GraphCache::GraphCache(size_t capacity, const FeatureSpec& spec)
    : capacity_(capacity == 0 ? 1 : capacity), spec_(spec) {}

std::string GraphCache::CanonicalKey(const Graph& g) {
  std::string key;
  key.reserve(8 + 4 * static_cast<size_t>(g.num_nodes()) +
              12 * static_cast<size_t>(g.num_edges()));
  AppendI32(&key, g.num_nodes());
  for (int u = 0; u < g.num_nodes(); ++u) AppendI32(&key, g.node_label(u));
  // Edges() returns u < v pairs in ascending scan order, so the
  // encoding is already canonical for a given adjacency.
  for (const auto& [u, v] : g.Edges()) {
    AppendI32(&key, u);
    AppendI32(&key, v);
    AppendF32(&key, g.EdgeWeight(u, v));
  }
  return key;
}

std::shared_ptr<const PreparedGraph> GraphCache::Prepare(const Graph& g) {
  static obs::Counter* hit = obs::GetCounter(obs::names::kServeCacheHit);
  static obs::Counter* miss = obs::GetCounter(obs::names::kServeCacheMiss);
  static obs::Counter* evicted =
      obs::GetCounter(obs::names::kServeCacheEvicted);

  std::string key = CanonicalKey(g);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hit->Increment();
      return it->second->second;
    }
  }
  // Prepare outside the lock: featurising and building the propagation
  // operators is the expensive part, and two concurrent misses on the
  // same key just race to insert (the loser's copy is dropped, both
  // answers are correct).
  auto prepared =
      std::make_shared<const PreparedGraph>(PrepareGraph(g, spec_));
  miss->Increment();

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(key, prepared);
  index_.emplace(std::move(key), lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evicted->Increment();
  }
  return prepared;
}

size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace hap::serve
