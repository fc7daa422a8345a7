// Labeled undirected graph G = (V, E) with per-edge latencies — the
// physical network model from Section III of the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace hermes::net {

using NodeId = std::uint32_t;
inline constexpr double kInfLatency = std::numeric_limits<double>::infinity();

struct Edge {
  NodeId to = 0;
  double latency_ms = 0.0;
};

// Caller-owned scratch for Graph::nearest(). Keep one per thread and reuse
// it: a search resets only the entries it touched, so its cost follows the
// nodes it settles, not the size of the graph.
class NearestScratch {
 private:
  friend class Graph;
  std::vector<double> dist_;
  std::vector<NodeId> touched_;
  std::vector<std::pair<double, NodeId>> heap_;
  std::vector<Edge> found_;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t node_count) : adjacency_(node_count) {}

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t edge_count() const;  // undirected edges

  NodeId add_node();
  // Adds an undirected edge; no-op (keeping the first latency) if present.
  void add_edge(NodeId a, NodeId b, double latency_ms);
  bool has_edge(NodeId a, NodeId b) const;
  // Latency of edge (a, b); nullopt if absent.
  std::optional<double> edge_latency(NodeId a, NodeId b) const;

  const std::vector<Edge>& neighbors(NodeId v) const {
    HERMES_DCHECK(v < adjacency_.size());
    return adjacency_[v];
  }
  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  // Single-source shortest path latencies (Dijkstra). Unreachable nodes get
  // kInfLatency.
  std::vector<double> shortest_latencies(NodeId source) const;
  // Dijkstra from `source` that stops once the answer is known. Returns
  // every node other than `source` accepted by `eligible` whose latency is
  // at most that of the `count`-th nearest such node, as (node, latency)
  // pairs sorted by (latency, id); fewer than `count` when fewer are
  // reachable. Latencies equal shortest_latencies(source) bit for bit: both
  // run the same relaxations, and settled values do not depend on the
  // order of settling. The result lives in `scratch` until its next search.
  template <typename Eligible>
  const std::vector<Edge>& nearest(NodeId source, std::size_t count,
                                   NearestScratch& scratch,
                                   Eligible&& eligible) const;
  // Hop distances (BFS). Unreachable nodes get SIZE_MAX.
  std::vector<std::size_t> hop_distances(NodeId source) const;

  bool is_connected() const;

 private:
  std::vector<std::vector<Edge>> adjacency_;
};

template <typename Eligible>
const std::vector<Edge>& Graph::nearest(NodeId source, std::size_t count,
                                        NearestScratch& scratch,
                                        Eligible&& eligible) const {
  HERMES_REQUIRE(source < adjacency_.size());
  auto& s = scratch;
  if (s.dist_.size() != adjacency_.size()) {
    s.dist_.assign(adjacency_.size(), kInfLatency);
  }
  s.found_.clear();
  s.heap_.clear();
  if (count == 0) return s.found_;
  const auto relax = [&s](NodeId v, double d) {
    if (!(d < s.dist_[v])) return;
    if (s.dist_[v] == kInfLatency) s.touched_.push_back(v);
    s.dist_[v] = d;
    s.heap_.emplace_back(d, v);
    std::push_heap(s.heap_.begin(), s.heap_.end(), std::greater<>{});
  };
  relax(source, 0.0);
  // Settled latencies never decrease, so once `count` eligible nodes are
  // settled only nodes tied with the last one can still belong to the
  // answer; they are settled too (a zero-latency link can reach a lower id
  // after a higher one) before the search stops.
  double limit = kInfLatency;
  while (!s.heap_.empty()) {
    std::pop_heap(s.heap_.begin(), s.heap_.end(), std::greater<>{});
    const auto [d, v] = s.heap_.back();
    s.heap_.pop_back();
    if (d > s.dist_[v]) continue;  // stale entry
    if (d > limit) break;
    if (v != source && eligible(v)) {
      s.found_.push_back(Edge{v, d});
      if (s.found_.size() == count) limit = d;
    }
    for (const Edge& e : adjacency_[v]) relax(e.to, d + e.latency_ms);
  }
  for (NodeId v : s.touched_) s.dist_[v] = kInfLatency;
  s.touched_.clear();
  std::sort(s.found_.begin(), s.found_.end(), [](const Edge& a, const Edge& b) {
    return a.latency_ms < b.latency_ms ||
           (a.latency_ms == b.latency_ms && a.to < b.to);
  });
  return s.found_;
}

}  // namespace hermes::net
