#include "hermes/fault_density.hpp"

#include <algorithm>
#include <queue>

#include "support/assert.hpp"

namespace hermes::hermes_proto {

namespace {

// Number of faulty nodes within d hops of v (excluding v itself).
std::size_t faulty_in_ball(const net::Graph& g, const std::vector<bool>& faulty,
                           net::NodeId v, std::size_t d_hops) {
  std::vector<std::size_t> dist(g.node_count(), SIZE_MAX);
  std::queue<net::NodeId> q;
  dist[v] = 0;
  q.push(v);
  std::size_t count = 0;
  while (!q.empty()) {
    const net::NodeId u = q.front();
    q.pop();
    if (dist[u] >= d_hops) continue;
    for (const net::Edge& e : g.neighbors(u)) {
      if (dist[e.to] != SIZE_MAX) continue;
      dist[e.to] = dist[u] + 1;
      if (faulty[e.to]) ++count;
      q.push(e.to);
    }
  }
  return count;
}

}  // namespace

FaultDensityReport check_fault_density(const net::Graph& g,
                                       const std::vector<bool>& faulty,
                                       std::size_t d_hops, std::size_t f) {
  HERMES_REQUIRE(faulty.size() == g.node_count());
  FaultDensityReport report;
  for (net::NodeId v = 0; v < g.node_count(); ++v) {
    const std::size_t count = faulty_in_ball(g, faulty, v, d_hops);
    report.max_faulty_in_ball = std::max(report.max_faulty_in_ball, count);
    if (count > f) {
      report.holds = false;
      report.crowded_nodes.push_back(v);
    }
    if (!faulty[v] && g.degree(v) > 0) {
      const auto& nbrs = g.neighbors(v);
      const bool surrounded =
          std::all_of(nbrs.begin(), nbrs.end(),
                      [&](const net::Edge& e) { return faulty[e.to]; });
      if (surrounded) {
        report.holds = false;
        report.surrounded_nodes.push_back(v);
      }
    }
  }
  return report;
}

}  // namespace hermes::hermes_proto
