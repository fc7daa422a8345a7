#include "net/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace hermes::net {
namespace {

Graph line_graph(std::size_t n, double latency = 1.0) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1, latency);
  return g;
}

TEST(Graph, AddAndQueryEdges) {
  Graph g(3);
  g.add_edge(0, 1, 5.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(*g.edge_latency(0, 1), 5.0);
  EXPECT_FALSE(g.edge_latency(0, 2).has_value());
}

TEST(Graph, AddEdgeIdempotent) {
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 9.0);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(*g.edge_latency(0, 1), 5.0);  // first latency kept
}

TEST(Graph, AddNodeGrows) {
  Graph g(1);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(Graph, DijkstraShortestLatencies) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 1.0);
  const auto dist = g.shortest_latencies(0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 2.0);  // via 1, not the direct 5.0 edge
  EXPECT_DOUBLE_EQ(dist[3], 3.0);
}

TEST(Graph, DijkstraUnreachable) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto dist = g.shortest_latencies(0);
  EXPECT_EQ(dist[2], kInfLatency);
}

TEST(Graph, NearestMatchesSortedShortestLatencies) {
  // Oracle: the full Dijkstra row's eligible nodes sorted by (latency, id)
  // and cut after the count-th one's latency. Integer latencies (zero
  // included) make ties and zero-latency hops common; sparse graphs leave
  // fewer than `count` reachable. One scratch serves every search, so state
  // left over from an earlier search would show.
  NearestScratch scratch;
  const auto by_latency_then_id = [](const Edge& a, const Edge& b) {
    return a.latency_ms < b.latency_ms ||
           (a.latency_ms == b.latency_ms && a.to < b.to);
  };
  std::size_t searches = 0;
  std::size_t with_ties = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const std::size_t n = 2 + rng.uniform_u64(59);
    Graph g(n);
    const std::size_t edges = rng.uniform_u64(3 * n);
    for (std::size_t i = 0; i < edges; ++i) {
      const auto a = static_cast<NodeId>(rng.uniform_u64(n));
      const auto b = static_cast<NodeId>(rng.uniform_u64(n));
      if (a == b) continue;
      g.add_edge(a, b,
                 seed % 2 == 0 ? static_cast<double>(rng.uniform_u64(4))
                               : 10.0 * rng.uniform01());
    }
    for (int q = 0; q < 5; ++q) {
      const auto source = static_cast<NodeId>(rng.uniform_u64(n));
      const std::size_t count = rng.uniform_u64(5);
      std::vector<char> eligible(n);
      for (char& e : eligible) e = rng.bernoulli(0.4) ? 1 : 0;

      const auto dist = g.shortest_latencies(source);
      std::vector<Edge> expected;
      for (NodeId v = 0; v < n; ++v) {
        if (v != source && eligible[v] && dist[v] != kInfLatency) {
          expected.push_back({v, dist[v]});
        }
      }
      std::sort(expected.begin(), expected.end(), by_latency_then_id);
      if (count == 0) expected.clear();
      if (expected.size() > count && count > 0) {
        const double limit = expected[count - 1].latency_ms;
        while (expected.back().latency_ms > limit) expected.pop_back();
        if (expected.size() > count) ++with_ties;
      }

      const auto& got = g.nearest(source, count, scratch,
                                  [&](NodeId v) { return eligible[v] != 0; });
      ASSERT_EQ(got.size(), expected.size())
          << "seed " << seed << " query " << q;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].to, expected[i].to) << "seed " << seed;
        ASSERT_EQ(got[i].latency_ms, expected[i].latency_ms) << "seed " << seed;
      }
      ++searches;
    }
  }
  EXPECT_EQ(searches, 300u);
  EXPECT_GT(with_ties, 0u);
}

TEST(Graph, HopDistances) {
  const Graph g = line_graph(5);
  const auto hops = g.hop_distances(0);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(hops[i], i);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2, 1.0);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, EmptyGraphIsConnected) {
  EXPECT_TRUE(Graph(0).is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
}

}  // namespace
}  // namespace hermes::net
