#include "net/graph.hpp"

#include <algorithm>
#include <queue>

namespace hermes::net {

std::size_t Graph::edge_count() const {
  std::size_t total = 0;
  for (const auto& adj : adjacency_) total += adj.size();
  return total / 2;
}

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

void Graph::add_edge(NodeId a, NodeId b, double latency_ms) {
  HERMES_REQUIRE(a < adjacency_.size() && b < adjacency_.size());
  HERMES_REQUIRE(a != b);
  if (has_edge(a, b)) return;
  adjacency_[a].push_back(Edge{b, latency_ms});
  adjacency_[b].push_back(Edge{a, latency_ms});
}

bool Graph::has_edge(NodeId a, NodeId b) const {
  HERMES_DCHECK(a < adjacency_.size());
  const auto& adj = adjacency_[a];
  return std::any_of(adj.begin(), adj.end(),
                     [b](const Edge& e) { return e.to == b; });
}

std::optional<double> Graph::edge_latency(NodeId a, NodeId b) const {
  HERMES_DCHECK(a < adjacency_.size());
  for (const Edge& e : adjacency_[a]) {
    if (e.to == b) return e.latency_ms;
  }
  return std::nullopt;
}

std::vector<double> Graph::shortest_latencies(NodeId source) const {
  HERMES_REQUIRE(source < adjacency_.size());
  std::vector<double> dist(adjacency_.size(), kInfLatency);
  dist[source] = 0.0;
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    for (const Edge& e : adjacency_[v]) {
      const double nd = d + e.latency_ms;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        pq.emplace(nd, e.to);
      }
    }
  }
  return dist;
}

std::vector<std::size_t> Graph::hop_distances(NodeId source) const {
  HERMES_REQUIRE(source < adjacency_.size());
  std::vector<std::size_t> dist(adjacency_.size(), SIZE_MAX);
  dist[source] = 0;
  std::queue<NodeId> q;
  q.push(source);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const Edge& e : adjacency_[v]) {
      if (dist[e.to] == SIZE_MAX) {
        dist[e.to] = dist[v] + 1;
        q.push(e.to);
      }
    }
  }
  return dist;
}

bool Graph::is_connected() const {
  if (adjacency_.empty()) return true;
  const auto dist = hop_distances(0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::size_t d) { return d == SIZE_MAX; });
}

}  // namespace hermes::net
