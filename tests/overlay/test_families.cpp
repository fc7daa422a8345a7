#include "overlay/families.hpp"

#include <gtest/gtest.h>

#include "net/connectivity.hpp"
#include "overlay/robust_tree.hpp"

namespace hermes::overlay {
namespace {

net::Topology test_topology(std::size_t n = 48) {
  net::TopologyParams params;
  params.node_count = n;
  params.min_degree = 4;
  Rng rng(33);
  return net::make_topology(params, rng);
}

// Each family at n = 48 and at n = 520: connectivity comes from the
// construction alone, so it must hold at any size.
class FamilyConnectivityTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void expect_connected(net::Graph (*build)(const net::Topology&, std::size_t,
                                             Rng&),
                        std::uint64_t seed) {
    const std::size_t f = GetParam();
    for (std::size_t n : {48, 520}) {
      const net::Topology topo = test_topology(n);
      Rng rng(seed);
      const net::Graph g = build(topo, f, rng);
      EXPECT_TRUE(net::is_k_vertex_connected(g, f + 1))
          << "f=" << f << " n=" << n;
    }
  }
};

TEST_P(FamilyConnectivityTest, ChordalRingIsFPlusOneConnected) {
  expect_connected(make_chordal_ring, 1);
}

TEST_P(FamilyConnectivityTest, HypercubeIsFPlusOneConnected) {
  expect_connected(make_hypercube, 2);
}

TEST_P(FamilyConnectivityTest, RandomOverlayIsFPlusOneConnected) {
  expect_connected(make_random_connected, 3);
}

TEST_P(FamilyConnectivityTest, KDiamondIsFPlusOneConnected) {
  expect_connected(make_k_diamond, 4);
}

TEST_P(FamilyConnectivityTest, PastedTreesAreFPlusOneConnected) {
  expect_connected(make_pasted_trees, 5);
}

INSTANTIATE_TEST_SUITE_P(FaultLevels, FamilyConnectivityTest,
                         ::testing::Values(1, 2, 3));

TEST(Families, KDiamondBandStructure) {
  // Exact multiple of f+1: pure biclique chain, every node has 2(f+1)
  // links (to the previous and next band).
  net::TopologyParams params;
  params.node_count = 48;  // divisible by 2 and 3
  Rng trng(8);
  const net::Topology topo = net::make_topology(params, trng);
  Rng rng(9);
  const net::Graph g = make_k_diamond(topo, 1, rng);
  for (net::NodeId v = 0; v < 48; ++v) {
    EXPECT_EQ(g.degree(v), 4u) << v;  // 2 bands x (f+1) = 4
  }
}

TEST(Families, PastedTreesPreferPhysicalEdges) {
  // Spanning trees are built from physical edges, so most pasted-tree
  // links carry physical latencies.
  const net::Topology topo = test_topology(40);
  Rng rng(10);
  const net::Graph g = make_pasted_trees(topo, 1, rng);
  std::size_t physical = 0, total = 0;
  for (net::NodeId v = 0; v < 40; ++v) {
    for (const net::Edge& e : g.neighbors(v)) {
      if (e.to < v) continue;
      ++total;
      if (topo.graph.has_edge(v, e.to)) ++physical;
    }
  }
  EXPECT_GT(static_cast<double>(physical) / static_cast<double>(total), 0.6);
}

TEST(Families, HypercubePowerOfTwoStructure) {
  net::TopologyParams params;
  params.node_count = 32;
  Rng trng(4);
  const net::Topology topo = net::make_topology(params, trng);
  Rng rng(5);
  const net::Graph g = make_hypercube(topo, 1, rng);
  // Every node has at least the 5 hypercube neighbors (dims = 5).
  for (net::NodeId v = 0; v < 32; ++v) {
    EXPECT_GE(g.degree(v), 5u);
    for (int b = 0; b < 5; ++b) {
      EXPECT_TRUE(g.has_edge(v, v ^ (1u << b)));
    }
  }
}

TEST(Families, FloodReachesEveryone) {
  const net::Topology topo = test_topology();
  Rng rng(6);
  const net::Graph g = make_chordal_ring(topo, 1, rng);
  const FloodMetrics m = measure_flood(g, 0);
  EXPECT_DOUBLE_EQ(m.reached_fraction, 1.0);
  EXPECT_GT(m.avg_latency, 0.0);
  // Source floods on all links.
  EXPECT_DOUBLE_EQ(m.messages_sent[0], static_cast<double>(g.degree(0)));
}

TEST(Families, FloodOnDisconnectedGraphPartialCoverage) {
  net::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const FloodMetrics m = measure_flood(g, 0);
  EXPECT_DOUBLE_EQ(m.reached_fraction, 0.5);
}

TEST(Families, OverlayFloodMatchesDissemination) {
  const net::Topology topo = test_topology();
  RankTable ranks(topo.graph.node_count(), 0.0);
  const Overlay o = build_robust_tree(topo.graph, 1, ranks);
  const FloodMetrics m = measure_overlay_flood(o);
  EXPECT_DOUBLE_EQ(m.reached_fraction, 1.0);
  const auto dist = o.dissemination_latencies();
  for (net::NodeId v = 0; v < o.node_count(); ++v) {
    EXPECT_DOUBLE_EQ(m.arrival_ms[v], dist[v]);
  }
}

TEST(Families, RobustTreeLowerLatencyThanChordalRing) {
  // The Figure 2 headline: robust trees trade load balance for latency.
  const net::Topology topo = test_topology(64);
  Rng rng(7);
  const net::Graph ring = make_chordal_ring(topo, 1, rng);
  RankTable ranks(64, 0.0);
  const Overlay tree = build_robust_tree(topo.graph, 1, ranks);
  const FloodMetrics ring_m = measure_flood(ring, 0);
  const FloodMetrics tree_m = measure_overlay_flood(tree);
  EXPECT_LT(tree_m.avg_latency, ring_m.avg_latency);
}

}  // namespace
}  // namespace hermes::overlay
