#include "net/connectivity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "net/topology.hpp"
#include "support/rng.hpp"

namespace hermes::net {
namespace {

Graph cycle_graph(std::size_t n) {
  Graph g(n);
  for (NodeId v = 0; v < n; ++v) {
    g.add_edge(v, static_cast<NodeId>((v + 1) % n), 1.0);
  }
  return g;
}

Graph complete_graph(std::size_t n) {
  Graph g(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) g.add_edge(a, b, 1.0);
  }
  return g;
}

// Random graphs for the connectivity property test, one family per seed
// residue: sparse G(n, p) (often disconnected or with low degree), dense
// G(n, p), complete graphs, two dense blobs sharing 0-4 cut vertices (high
// minimum degree, low connectivity) and circulant rings with extra chords.
Graph random_graph(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 2 + rng.uniform_u64(79);  // 2..80
  Graph g(n);
  const auto maybe_edge = [&](NodeId a, NodeId b, double p) {
    if (a != b && rng.bernoulli(p)) g.add_edge(a, b, 1.0);
  };
  switch (seed % 5) {
    case 0: {
      const double p = (1.0 + 5.0 * rng.uniform01()) / static_cast<double>(n);
      for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = a + 1; b < n; ++b) maybe_edge(a, b, p);
      }
      break;
    }
    case 1: {
      const double p = 0.3 + 0.6 * rng.uniform01();
      for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = a + 1; b < n; ++b) maybe_edge(a, b, p);
      }
      break;
    }
    case 2:
      return complete_graph(1 + rng.uniform_u64(12));
    case 3: {
      // Blob A = [0, half), blob B = [half, n - cut), shared cut vertices
      // [n - cut, n) adjacent to both blobs.
      const std::size_t cut = std::min<std::size_t>(rng.uniform_u64(5), n / 3);
      const std::size_t half = (n - cut) / 2;
      const auto blob = [&](NodeId v) {
        return v >= n - cut ? 2 : (v < half ? 0 : 1);
      };
      for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = a + 1; b < n; ++b) {
          if (blob(a) == 2 || blob(b) == 2 || blob(a) == blob(b)) {
            maybe_edge(a, b, 0.8);
          }
        }
      }
      break;
    }
    default: {
      const std::size_t strides = 1 + rng.uniform_u64(4);
      for (NodeId v = 0; v < n; ++v) {
        for (std::size_t s = 1; s <= strides; ++s) {
          const auto u = static_cast<NodeId>((v + s) % n);
          if (u != v && !g.has_edge(v, u)) g.add_edge(v, u, 1.0);
        }
      }
      for (std::size_t i = 0; i < n / 4; ++i) {
        maybe_edge(static_cast<NodeId>(rng.uniform_u64(n)),
                   static_cast<NodeId>(rng.uniform_u64(n)), 1.0);
      }
      break;
    }
  }
  return g;
}

// Vertex connectivity by exhaustive search: the size of the smallest vertex
// set whose removal disconnects the rest, n - 1 when none does.
std::size_t brute_force_connectivity(const Graph& g) {
  const std::size_t n = g.node_count();
  if (n < 2) return 0;
  std::size_t best = n - 1;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    const auto removed = static_cast<std::size_t>(__builtin_popcount(mask));
    if (removed >= best || removed > n - 2) continue;
    Graph rest(n - removed);
    std::vector<NodeId> index(n, 0);
    for (NodeId v = 0, next = 0; v < n; ++v) {
      if (!(mask >> v & 1u)) index[v] = next++;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (mask >> v & 1u) continue;
      for (const Edge& e : g.neighbors(v)) {
        if (!(mask >> e.to & 1u)) rest.add_edge(index[v], index[e.to], 1.0);
      }
    }
    if (!rest.is_connected()) best = removed;
  }
  return best;
}

TEST(Connectivity, CycleHasTwoDisjointPaths) {
  const Graph g = cycle_graph(6);
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 3), 2u);
}

TEST(Connectivity, LineHasOnePath) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 3), 1u);
}

TEST(Connectivity, DisconnectedPairHasZeroPaths) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 3), 0u);
}

TEST(Connectivity, CompleteGraphPathCount) {
  const Graph g = complete_graph(5);
  // Direct edge + 3 two-hop paths through the other vertices.
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 4), 4u);
}

TEST(Connectivity, BottleneckVertexLimitsPaths) {
  // Two triangles sharing a cut vertex 2: 0-1-2 and 2-3-4.
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(2, 4, 1.0);
  EXPECT_EQ(max_vertex_disjoint_paths(g, 0, 4), 1u);
}

TEST(Connectivity, ExtractedPathsAreDisjointAndValid) {
  const Graph g = cycle_graph(8);
  const auto paths = vertex_disjoint_paths(g, 0, 4, 5);
  ASSERT_EQ(paths.size(), 2u);
  std::set<NodeId> interior;
  for (const auto& path : paths) {
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), 4u);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(g.has_edge(path[i], path[i + 1]))
          << path[i] << "->" << path[i + 1];
    }
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(interior.insert(path[i]).second)
          << "interior vertex reused: " << path[i];
    }
  }
}

TEST(Connectivity, ExtractRespectsWantLimit) {
  const Graph g = complete_graph(6);
  const auto paths = vertex_disjoint_paths(g, 0, 5, 2);
  EXPECT_EQ(paths.size(), 2u);
}

TEST(Connectivity, VertexConnectivityKnownGraphs) {
  EXPECT_EQ(vertex_connectivity(cycle_graph(7)), 2u);
  EXPECT_EQ(vertex_connectivity(complete_graph(5)), 4u);
  Graph line(3);
  line.add_edge(0, 1, 1.0);
  line.add_edge(1, 2, 1.0);
  EXPECT_EQ(vertex_connectivity(line), 1u);
  Graph disconnected(4);
  disconnected.add_edge(0, 1, 1.0);
  EXPECT_EQ(vertex_connectivity(disconnected), 0u);
}

TEST(Connectivity, IsKVertexConnected) {
  const Graph c = cycle_graph(6);
  EXPECT_TRUE(is_k_vertex_connected(c, 0));
  EXPECT_TRUE(is_k_vertex_connected(c, 1));
  EXPECT_TRUE(is_k_vertex_connected(c, 2));
  EXPECT_FALSE(is_k_vertex_connected(c, 3));
  EXPECT_FALSE(is_k_vertex_connected(Graph(2), 1));  // too few nodes/edges
}

TEST(Connectivity, IsKVertexConnectedAgreesWithVertexConnectivity) {
  std::size_t cases = 0;
  std::size_t disconnected = 0;
  std::size_t complete = 0;
  std::size_t low_degree = 0;
  std::size_t by_flow[2] = {0, 0};  // past the degree test: false / true
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const Graph g = random_graph(seed);
    const std::size_t n = g.node_count();
    const std::size_t kappa = vertex_connectivity(g);
    if (n <= 10) {
      ASSERT_EQ(kappa, brute_force_connectivity(g)) << "seed " << seed;
    }
    std::size_t min_degree = n;
    for (NodeId v = 0; v < n; ++v) min_degree = std::min(min_degree, g.degree(v));
    disconnected += g.is_connected() ? 0 : 1;
    complete += g.edge_count() == n * (n - 1) / 2 ? 1 : 0;
    for (std::size_t k = 0; k <= 6; ++k) {
      const bool connected = is_k_vertex_connected(g, k);
      ASSERT_EQ(connected, kappa >= k)
          << "seed " << seed << " n=" << n << " k=" << k << " kappa=" << kappa;
      ++cases;
      if (k > 0 && min_degree < k) ++low_degree;
      if (k > 0 && min_degree >= k && n > k) ++by_flow[connected ? 1 : 0];
    }
  }
  EXPECT_EQ(cases, 840u);
  EXPECT_GT(disconnected, 0u);
  EXPECT_GT(complete, 0u);
  EXPECT_GT(low_degree, 0u);
  EXPECT_GT(by_flow[0], 0u);
  EXPECT_GT(by_flow[1], 0u);
}

TEST(Connectivity, HypercubeIsFourConnected) {
  // 4-dimensional hypercube: kappa = 4.
  Graph g(16);
  for (NodeId v = 0; v < 16; ++v) {
    for (int b = 0; b < 4; ++b) {
      const NodeId u = v ^ (1u << b);
      if (u > v) g.add_edge(v, u, 1.0);
    }
  }
  EXPECT_EQ(vertex_connectivity(g), 4u);
}

}  // namespace
}  // namespace hermes::net
