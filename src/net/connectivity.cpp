#include "net/connectivity.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace hermes::net {

namespace {

std::uint32_t in_node(NodeId v) { return 2 * v; }
std::uint32_t out_node(NodeId v) { return 2 * v + 1; }

// Unit-capacity flow network over the vertex-split graph: vertex v becomes
// in-node 2v and out-node 2v+1 joined by one unit arc, and each undirected
// edge {u, w} becomes out(u) -> in(w) and out(w) -> in(u). Built once per
// graph and reused across (s, t) pairs: each flow first undoes only the
// arcs the previous one pushed along. The s and t vertex arcs need no
// larger capacity: paths start at out(s) and stop on reaching in(t), so no
// augmenting path can cross either arc.
class SplitNetwork {
 public:
  struct Arc {
    std::uint32_t to;
    std::int32_t flow;  // residual capacity is cap - flow
    std::int32_t cap;
    std::uint32_t rev;  // index of the reverse arc in adj[to]
  };

  explicit SplitNetwork(const Graph& g)
      : adj(g.node_count() * 2), parent_(adj.size(), kUnseen) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      add_arc(in_node(v), out_node(v));
      for (const Edge& e : g.neighbors(v)) add_arc(out_node(v), in_node(e.to));
    }
  }

  // Number of internally vertex-disjoint s-t paths, stopping early once
  // `cap` are found (SIZE_MAX for the exact count). The flow stays in the
  // arcs until the next call.
  std::size_t max_flow(NodeId s, NodeId t, std::size_t cap) {
    for (const auto& [v, i] : pushed_) {
      Arc& a = adj[v][i];
      a.flow = 0;
      adj[a.to][a.rev].flow = 0;
    }
    pushed_.clear();
    std::size_t flow = 0;
    while (flow < cap && augment(out_node(s), in_node(t))) ++flow;
    return flow;
  }

  std::vector<std::vector<Arc>> adj;

 private:
  static constexpr std::pair<std::uint32_t, std::uint32_t> kUnseen{UINT32_MAX,
                                                                   UINT32_MAX};

  void add_arc(std::uint32_t from, std::uint32_t to) {
    adj[from].push_back(Arc{to, 0, 1, static_cast<std::uint32_t>(adj[to].size())});
    adj[to].push_back(
        Arc{from, 0, 0, static_cast<std::uint32_t>(adj[from].size() - 1)});
  }

  // One BFS augmentation of value 1; returns false when no augmenting path.
  bool augment(std::uint32_t s, std::uint32_t t) {
    queue_.assign(1, s);
    parent_[s] = {s, UINT32_MAX};
    for (std::size_t head = 0;
         head < queue_.size() && parent_[t].first == UINT32_MAX; ++head) {
      const std::uint32_t v = queue_[head];
      for (std::uint32_t i = 0; i < adj[v].size(); ++i) {
        const Arc& a = adj[v][i];
        if (a.flow < a.cap && parent_[a.to].first == UINT32_MAX) {
          parent_[a.to] = {v, i};
          queue_.push_back(a.to);
        }
      }
    }
    const bool found = parent_[t].first != UINT32_MAX;
    // Walk back and push one unit.
    for (std::uint32_t cur = t; found && cur != s;) {
      const auto [prev, arc_idx] = parent_[cur];
      Arc& a = adj[prev][arc_idx];
      a.flow += 1;
      adj[a.to][a.rev].flow -= 1;
      pushed_.emplace_back(prev, arc_idx);
      cur = prev;
    }
    for (std::uint32_t v : queue_) parent_[v] = kUnseen;
    return found;
  }

  // BFS marks: (node, arc index) of each visited node's discovery.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> parent_;
  std::vector<std::uint32_t> queue_;
  // Arcs that carry flow changes since the last reset.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pushed_;
};

}  // namespace

std::size_t max_vertex_disjoint_paths(const Graph& g, NodeId s, NodeId t) {
  HERMES_REQUIRE(s != t);
  return SplitNetwork(g).max_flow(s, t, SIZE_MAX);
}

std::vector<std::vector<NodeId>> vertex_disjoint_paths(const Graph& g, NodeId s,
                                                       NodeId t,
                                                       std::size_t want) {
  HERMES_REQUIRE(s != t);
  SplitNetwork net(g);
  const std::size_t flow = net.max_flow(s, t, want);

  // Flow decomposition. An out(u) -> in(v) arc with u != v is a forward
  // edge arc; it carries one flow unit iff its flow is 1. Unit vertex
  // capacities mean every intermediate vertex has at most one flow
  // successor, so following successors from s yields vertex-disjoint
  // paths directly.
  std::vector<std::vector<NodeId>> successors(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const auto& a : net.adj[out_node(u)]) {
      const bool is_edge_arc = (a.to % 2 == 0) && (a.to / 2 != u);
      if (is_edge_arc && a.flow == 1) {
        successors[u].push_back(static_cast<NodeId>(a.to / 2));
      }
    }
  }

  std::vector<std::vector<NodeId>> paths;
  for (std::size_t p = 0; p < flow; ++p) {
    std::vector<NodeId> path{s};
    NodeId cur = s;
    while (cur != t) {
      HERMES_REQUIRE(!successors[cur].empty());
      const NodeId next = successors[cur].back();
      successors[cur].pop_back();
      path.push_back(next);
      cur = next;
      // Bounded by construction; guard against malformed flow anyway.
      HERMES_REQUIRE(path.size() <= g.node_count() + 1);
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

std::size_t vertex_connectivity(const Graph& g) {
  const std::size_t n = g.node_count();
  if (n < 2) return 0;
  if (!g.is_connected()) return 0;

  // Complete graph: kappa = n - 1 (no non-adjacent pair exists).
  std::size_t min_degree = SIZE_MAX;
  NodeId v0 = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (g.degree(v) < min_degree) {
      min_degree = g.degree(v);
      v0 = v;
    }
  }
  if (min_degree == n - 1) return n - 1;

  // kappa <= deg(v0), so the minimum cut misses at least one vertex of
  // {v0} union N(v0); flows from every member of that set to every
  // non-neighbor cover all cuts.
  SplitNetwork net(g);
  std::size_t best = min_degree;
  std::vector<NodeId> sources{v0};
  for (const Edge& e : g.neighbors(v0)) sources.push_back(e.to);
  for (NodeId s : sources) {
    for (NodeId u = 0; u < n; ++u) {
      if (u == s || g.has_edge(s, u)) continue;
      best = std::min(best, net.max_flow(s, u, best + 1));
      if (best == 0) return 0;
    }
  }
  return best;
}

bool is_k_vertex_connected(const Graph& g, std::size_t k) {
  if (k == 0) return true;
  const std::size_t n = g.node_count();
  if (n < k + 1) return false;
  for (NodeId v = 0; v < n; ++v) {
    if (g.degree(v) < k) return false;
  }
  // A separator of fewer than k vertices misses one of any k vertices, and
  // that vertex is then cut off from some non-neighbor. So flows from k
  // fixed vertices to each of their non-neighbors, capped at k paths,
  // decide kappa >= k exactly.
  SplitNetwork net(g);
  for (NodeId s = 0; s < k; ++s) {
    for (NodeId u = 0; u < n; ++u) {
      if (u == s || g.has_edge(s, u)) continue;
      if (net.max_flow(s, u, k) < k) return false;
    }
  }
  return true;
}

}  // namespace hermes::net
