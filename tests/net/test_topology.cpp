#include "net/topology.hpp"

#include <gtest/gtest.h>

#include "net/connectivity.hpp"

namespace hermes::net {
namespace {

TEST(LatencyModel, IntraRegionFollowsInverseGammaMean) {
  Rng rng(1);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += sample_latency(Region::kFrankfurt, Region::kFrankfurt, rng);
  }
  // inv-gamma(2.5, 14) mean = 14/1.5 = 9.33 ms.
  EXPECT_NEAR(sum / n, 14.0 / 1.5, 0.5);
}

TEST(LatencyModel, InterRegionFollowsNormalMean) {
  Rng rng(2);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += sample_latency(Region::kFrankfurt, Region::kNewYork, rng);
  }
  EXPECT_NEAR(sum / n, 90.0, 0.5);
}

TEST(LatencyModel, FloorApplied) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(sample_latency(Region::kTokyo, Region::kLondon, rng),
              kLatencyFloorMs);
    EXPECT_GE(sample_latency(Region::kTokyo, Region::kTokyo, rng),
              kLatencyFloorMs);
  }
}

TEST(RegionNames, AllDistinct) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kRegionCount; ++i) {
    names.insert(region_name(static_cast<Region>(i)));
  }
  EXPECT_EQ(names.size(), kRegionCount);
}

TEST(Topology, DeterministicGivenSeed) {
  TopologyParams params;
  params.node_count = 60;
  Rng r1(7), r2(7);
  const Topology a = make_topology(params, r1);
  const Topology b = make_topology(params, r2);
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
  EXPECT_EQ(a.regions, b.regions);
  for (NodeId v = 0; v < 60; ++v) {
    ASSERT_EQ(a.graph.degree(v), b.graph.degree(v));
  }
}

TEST(Topology, MeetsRequestedConnectivity) {
  TopologyParams params;
  params.node_count = 80;
  params.connectivity = 3;
  params.min_degree = 6;
  Rng rng(8);
  const Topology topo = make_topology(params, rng);
  EXPECT_TRUE(is_k_vertex_connected(topo.graph, 3));
}

TEST(Topology, RegionsBalanced) {
  TopologyParams params;
  params.node_count = 90;
  Rng rng(9);
  const Topology topo = make_topology(params, rng);
  std::array<int, kRegionCount> counts{};
  for (Region r : topo.regions) counts[static_cast<std::size_t>(r)] += 1;
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(Topology, MinDegreeSatisfied) {
  TopologyParams params;
  params.node_count = 64;
  params.min_degree = 5;
  Rng rng(10);
  const Topology topo = make_topology(params, rng);
  for (NodeId v = 0; v < 64; ++v) {
    EXPECT_GE(topo.graph.degree(v), 5u);
  }
}

TEST(Topology, EdgeLatenciesPositive) {
  TopologyParams params;
  params.node_count = 50;
  Rng rng(11);
  const Topology topo = make_topology(params, rng);
  for (NodeId v = 0; v < 50; ++v) {
    for (const Edge& e : topo.graph.neighbors(v)) {
      EXPECT_GT(e.latency_ms, 0.0);
    }
  }
}

TEST(Topology, RingChordsAloneAreTConnected) {
  // The construction rule on its own, over an edgeless graph: a ring with
  // chords up to ring_strides(t) is t-vertex-connected at every n > t.
  Rng rng(13);
  for (std::size_t t = 1; t <= 5; ++t) {
    for (std::size_t n = t + 1; n <= 60; ++n) {
      std::vector<NodeId> order(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<NodeId>(i);
      rng.shuffle(order);
      Graph g(n);
      add_ring_chords(g, order, ring_strides(t),
                      [](NodeId, NodeId) { return 1.0; });
      EXPECT_TRUE(is_k_vertex_connected(g, t)) << "t=" << t << " n=" << n;
    }
  }
}

TEST(Topology, MinDegreeBelowConnectivityStillTConnected) {
  // The ring chords make the graph t-connected whatever the random wiring
  // laid before them, so a minimum degree below t (even 0) still builds.
  for (std::size_t min_degree : {0, 1}) {
    for (std::size_t t : {2, 3}) {
      TopologyParams params;
      params.node_count = 60;
      params.min_degree = min_degree;
      params.connectivity = t;
      Rng rng(14);
      const Topology topo = make_topology(params, rng);
      EXPECT_TRUE(is_k_vertex_connected(topo.graph, t))
          << "min_degree=" << min_degree << " t=" << t;
    }
  }
}

TEST(Topology, MeetsRequestedConnectivityAt520Nodes) {
  // Connectivity comes from the construction alone, so it must hold at any
  // N; 520 is larger than the other tests here build.
  for (std::size_t t : {2, 3}) {
    TopologyParams params;
    params.node_count = 520;
    params.connectivity = t;
    Rng rng(12);
    const Topology topo = make_topology(params, rng);
    EXPECT_TRUE(is_k_vertex_connected(topo.graph, t)) << "t=" << t;
  }
}

}  // namespace
}  // namespace hermes::net
