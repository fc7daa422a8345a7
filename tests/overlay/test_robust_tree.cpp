#include "overlay/robust_tree.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"

namespace hermes::overlay {
namespace {

net::Topology test_topology(std::size_t n, std::uint64_t seed = 42) {
  net::TopologyParams params;
  params.node_count = n;
  params.min_degree = 5;
  params.connectivity = 2;
  Rng rng(seed);
  return net::make_topology(params, rng);
}

TEST(RobustTree, ProducesValidOverlay) {
  const net::Topology topo = test_topology(60);
  RankTable ranks(60, 0.0);
  const Overlay o = build_robust_tree(topo.graph, 1, ranks);
  const auto errors = o.validate();
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
}

TEST(RobustTree, EveryNodePlacedAndRanked) {
  const net::Topology topo = test_topology(50);
  RankTable ranks(50, 0.0);
  const Overlay o = build_robust_tree(topo.graph, 1, ranks);
  const double max_depth = static_cast<double>(o.max_depth());
  for (net::NodeId v = 0; v < 50; ++v) {
    EXPECT_GE(o.depth(v), 1u);
    // Ranks accumulate root proximity: entries gain the most, leaves the
    // least (but always at least 1).
    EXPECT_DOUBLE_EQ(ranks[v],
                     max_depth - static_cast<double>(o.depth(v)) + 1.0);
    EXPECT_GE(ranks[v], 1.0);
  }
  for (net::NodeId e : o.entry_points()) {
    EXPECT_DOUBLE_EQ(ranks[e], max_depth);
  }
}

TEST(RobustTree, EntryPointsHaveLowestInitialRank) {
  const net::Topology topo = test_topology(40);
  RankTable ranks(40, 0.0);
  // Pre-bias ranks so nodes 10..12 are clearly the least-used.
  for (net::NodeId v = 0; v < 40; ++v) ranks[v] = 5.0;
  ranks[10] = ranks[11] = ranks[12] = 0.0;
  const Overlay o = build_robust_tree(topo.graph, 2, ranks);
  ASSERT_EQ(o.entry_points().size(), 3u);
  for (net::NodeId e : o.entry_points()) {
    EXPECT_TRUE(e == 10 || e == 11 || e == 12) << e;
  }
}

TEST(RobustTree, NonEntryNodesHaveFPlusOnePredecessors) {
  for (std::size_t f : {1u, 2u, 3u}) {
    const net::Topology topo = test_topology(70, 100 + f);
    RankTable ranks(70, 0.0);
    const Overlay o = build_robust_tree(topo.graph, f, ranks);
    for (net::NodeId v = 0; v < 70; ++v) {
      if (!o.is_entry(v)) {
        EXPECT_GE(o.predecessors(v).size(), f + 1) << "f=" << f << " v=" << v;
      }
    }
  }
}

TEST(RobustTree, DeterministicGivenSameInputs) {
  const net::Topology topo = test_topology(45);
  RankTable r1(45, 0.0), r2(45, 0.0);
  const Overlay a = build_robust_tree(topo.graph, 1, r1);
  const Overlay b = build_robust_tree(topo.graph, 1, r2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (net::NodeId v = 0; v < 45; ++v) {
    ASSERT_EQ(a.depth(v), b.depth(v));
    ASSERT_EQ(a.successors(v), b.successors(v));
  }
}

TEST(RobustTree, RankAccumulationRotatesEntryPoints) {
  const net::Topology topo = test_topology(60);
  RankTable ranks(60, 0.0);
  std::vector<Overlay> trees;
  for (int i = 0; i < 5; ++i) {
    trees.push_back(build_robust_tree(topo.graph, 1, ranks));
  }
  // Entry points should not repeat wholesale across consecutive trees: the
  // rank update pushes previous entries away from the root.
  for (std::size_t i = 0; i + 1 < trees.size(); ++i) {
    const auto& a = trees[i].entry_points();
    const auto& b = trees[i + 1].entry_points();
    std::size_t common = 0;
    for (net::NodeId e : a) {
      common += std::count(b.begin(), b.end(), e);
    }
    EXPECT_LT(common, a.size()) << "trees " << i << " and " << i + 1
                                << " share all entry points";
  }
}

TEST(RobustTree, LayerBudgetRespected) {
  const net::Topology topo = test_topology(80);
  constexpr std::size_t f = 1;
  RankTable ranks(80, 0.0);
  const Overlay o = build_robust_tree(topo.graph, f, ranks);
  const auto layers = o.layers();
  // Depth-d layers built by the doubling phase hold at most 2^(d-1)*(f+1)
  // nodes. Missing-node integration can exceed this only at depths below
  // the doubling frontier, so check the first two layers which are always
  // doubling-phase layers.
  ASSERT_GE(layers.size(), 2u);
  EXPECT_EQ(layers[1].size(), f + 1);
  if (layers.size() > 2) {
    EXPECT_LE(layers[2].size(), 2 * (f + 1));
  }
}

TEST(RobustTree, RequiresEnoughNodes) {
  net::Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  RankTable ranks(3, 0.0);
  EXPECT_DEATH(build_robust_tree(g, /*f=*/2, ranks), "");  // needs >= 4 nodes
}

TEST(RobustTree, WorksOnDenseGraph) {
  // Complete graph: the doubling phase should absorb everything.
  net::Graph g(30);
  for (net::NodeId a = 0; a < 30; ++a) {
    for (net::NodeId b = a + 1; b < 30; ++b) {
      g.add_edge(a, b, 1.0 + (a + b) % 7);
    }
  }
  RankTable ranks(30, 0.0);
  const Overlay o = build_robust_tree(g, 1, ranks);
  EXPECT_TRUE(o.is_valid());
  // Dense graph, doubling pattern: depth stays logarithmic-ish.
  EXPECT_LE(o.max_depth(), 6u);
}

TEST(RobustTree, LogicalLinkTieGoesToLowerId) {
  // Entries {0, 1} (lowest average neighbor latency) share no neighbor, so
  // layer doubling stops at once and every other node joins through the
  // integration passes. Nodes 2, 3 and 5 lack f+1 placed physical
  // neighbors and take logical links to the nearest placed nodes. Nodes 0
  // and 1 tie on shortest-path latency for each of them; the zero-latency
  // link 1-0 means 1 is settled first, yet the lower id must win.
  net::Graph g(6);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(2, 4, 1.0);
  g.add_edge(4, 1, 1.0);
  g.add_edge(1, 0, 0.0);
  g.add_edge(4, 5, 10.0);
  RankTable ranks(6, 0.0);
  const Overlay o = build_robust_tree(g, 1, ranks);
  ASSERT_TRUE(o.is_valid());
  EXPECT_EQ(o.entry_points(), (std::vector<net::NodeId>{0, 1}));

  const auto from3 = g.shortest_latencies(3);
  ASSERT_EQ(from3[0], from3[1]);
  // Physical neighbor 2 first, then the logical tie at 2 ms.
  EXPECT_EQ(o.predecessors(3), (std::vector<net::NodeId>{2, 0}));
  EXPECT_EQ(o.link_latency(0, 3), 2.0);

  const auto from5 = g.shortest_latencies(5);
  ASSERT_EQ(from5[0], from5[1]);
  ASSERT_EQ(from5[0], from5[2]);
  // Physical neighbor 4, then 0 out of the four-way tie at 11 ms.
  EXPECT_EQ(o.predecessors(5), (std::vector<net::NodeId>{4, 0}));
  EXPECT_EQ(o.link_latency(0, 5), 11.0);
}

}  // namespace
}  // namespace hermes::overlay
