#include "overlay/annealing.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "net/topology.hpp"
#include "overlay/builder.hpp"

namespace hermes::overlay {
namespace {

struct AnnealFixture {
  net::Topology topo;
  Overlay tree;
  RankTable ranks;
};

AnnealFixture make_setup(std::size_t n = 50, std::size_t f = 1) {
  net::TopologyParams params;
  params.node_count = n;
  params.min_degree = 5;
  params.connectivity = 2;
  Rng rng(21);
  AnnealFixture s{net::make_topology(params, rng), Overlay{}, RankTable(n, 0.0)};
  RankTable build_ranks(n, 0.0);
  s.tree = build_robust_tree(s.topo.graph, f, build_ranks);
  return s;
}

AnnealingParams fast_params() {
  AnnealingParams p;
  p.initial_temperature = 10.0;
  p.min_temperature = 0.5;
  p.cooling_rate = 0.9;
  p.moves_per_temperature = 4;
  return p;
}

TEST(Objective, PenalizesMissingConnectivity) {
  AnnealFixture s = make_setup();
  const ObjectiveWeights w;
  const double before = objective_value(s.tree, s.ranks, w);
  // Strip a predecessor from some mid-tree node.
  Overlay damaged = s.tree;
  for (net::NodeId v = 0; v < damaged.node_count(); ++v) {
    if (!damaged.is_entry(v) && damaged.predecessors(v).size() == damaged.f() + 1) {
      damaged.remove_link(damaged.predecessors(v)[0], v);
      break;
    }
  }
  EXPECT_GT(objective_value(damaged, s.ranks, w), before - 1e9);
  EXPECT_GT(objective_value(damaged, s.ranks, w), before);
}

TEST(Objective, FewerEdgesScoreBetterWhenNothingElseChanges) {
  // A redundant extra edge should raise the objective via the edge term
  // (latency can only improve or stay equal, but the weights make one edge
  // dominate a tiny latency improvement on an already-short path).
  AnnealFixture s = make_setup();
  ObjectiveWeights w;
  w.latency = 0.0;  // isolate the edge term
  const double before = objective_value(s.tree, s.ranks, w);
  Overlay more = s.tree;
  // Add any missing consecutive-layer edge.
  const auto layers = more.layers();
  bool added = false;
  for (std::size_t d = 1; d + 1 < layers.size() && !added; ++d) {
    for (net::NodeId p : layers[d]) {
      for (net::NodeId c : layers[d + 1]) {
        if (!more.has_link(p, c)) {
          more.add_link(p, c, 1.0);
          added = true;
          break;
        }
      }
      if (added) break;
    }
  }
  ASSERT_TRUE(added);
  EXPECT_GT(objective_value(more, s.ranks, w), before);
}

TEST(Objective, RankPenaltyDiscouragesAlreadyFavoredNodesNearRoot) {
  AnnealFixture s = make_setup();
  ObjectiveWeights w;
  w.edges = 0.0;
  w.latency = 0.0;
  // Ranks accumulate root proximity: entries that were already favored
  // (high rank) should be penalized when placed at the root again.
  RankTable ranks_favored(s.tree.node_count(), 10.0);
  for (net::NodeId e : s.tree.entry_points()) ranks_favored[e] = 30.0;
  RankTable ranks_fresh(s.tree.node_count(), 10.0);
  for (net::NodeId e : s.tree.entry_points()) ranks_fresh[e] = 0.0;
  EXPECT_GT(objective_value(s.tree, ranks_favored, w),
            objective_value(s.tree, ranks_fresh, w));
}

TEST(Objective, EmptyOverlayScoresZero) {
  const Overlay empty;
  const RankTable no_ranks;
  const ObjectiveWeights w;
  EXPECT_EQ(objective_value(empty, no_ranks, w), 0.0);
}

TEST(Objective, AllUnreachableStaysFinite) {
  // No entry points: every node is unreachable. The latency term must not
  // divide by zero or go NaN; the path penalty carries the pressure.
  Overlay o(4, 1);
  for (net::NodeId v = 0; v < 4; ++v) o.set_depth(v, v + 1);
  const RankTable ranks(4, 1.0);
  const ObjectiveWeights w;
  const double val = objective_value(o, ranks, w);
  EXPECT_TRUE(std::isfinite(val));
  EXPECT_GE(val, w.path * 4.0);  // all 4 nodes unreachable

  // Single unplaced node: nothing reachable either.
  Overlay one(1, 0);
  const double lone = objective_value(one, RankTable(1, 0.0), w);
  EXPECT_TRUE(std::isfinite(lone));
}

TEST(IncrementalObjective, MatchesScratchAfterThousandRandomMoves) {
  AnnealFixture s = make_setup(60, 1);
  const ObjectiveWeights w;
  IncrementalObjective state(s.tree, s.ranks, w);
  Rng rng(17);
  const std::size_t n = state.overlay().node_count();

  std::size_t applied = 0;
  for (int i = 0; i < 1000; ++i) {
    if (rng.uniform01() < 0.5 && state.components().edges > 0) {
      // Remove a uniformly random edge.
      std::uint64_t target = rng.uniform_u64(
          static_cast<std::uint64_t>(state.components().edges));
      for (net::NodeId p = 0; p < n; ++p) {
        const auto& succ = state.overlay().successors(p);
        if (target < succ.size()) {
          ASSERT_TRUE(state.remove_link(p, succ[target], nullptr));
          ++applied;
          break;
        }
        target -= succ.size();
      }
    } else {
      // Random (possibly invalid) pair; add_link filters bad depth pairs.
      const net::NodeId p = static_cast<net::NodeId>(rng.uniform_u64(n));
      const net::NodeId c = static_cast<net::NodeId>(rng.uniform_u64(n));
      if (state.add_link(p, c, 1.0 + rng.uniform01() * 40.0, nullptr)) {
        ++applied;
      }
    }
    if (i % 97 == 0) state.flush();  // mix mid-stream and deferred flushes
  }
  state.flush();
  ASSERT_GT(applied, 100u);

  // Latencies must be value-identical to a scratch Dijkstra: the dirty-node
  // sweep recomputes exact minima, not approximations.
  const auto scratch_dist = state.overlay().dissemination_latencies();
  const auto& inc_dist = state.latencies();
  ASSERT_EQ(scratch_dist.size(), inc_dist.size());
  for (std::size_t v = 0; v < scratch_dist.size(); ++v) {
    EXPECT_DOUBLE_EQ(scratch_dist[v], inc_dist[v]) << "node " << v;
  }

  // Counting terms are exact; the running latency sum may differ from the
  // scratch sum by float-accumulation order only.
  const ObjectiveComponents scratch =
      objective_components(state.overlay(), s.ranks);
  EXPECT_EQ(scratch.edges, state.components().edges);
  EXPECT_EQ(scratch.unreachable, state.components().unreachable);
  EXPECT_EQ(scratch.connectivity_deficit,
            state.components().connectivity_deficit);
  EXPECT_DOUBLE_EQ(scratch.rank_penalty, state.components().rank_penalty);
  EXPECT_NEAR(scratch.latency_sum, state.components().latency_sum,
              1e-9 * (1.0 + std::abs(scratch.latency_sum)));
  EXPECT_NEAR(objective_value(state.overlay(), s.ranks, w), state.value(),
              1e-9 * (1.0 + std::abs(state.value())));
}

TEST(IncrementalObjective, RevertRestoresExactState) {
  AnnealFixture s = make_setup();
  const ObjectiveWeights w;
  IncrementalObjective state(s.tree, s.ranks, w);
  const auto before_dist = state.latencies();
  const ObjectiveComponents before = state.components();

  // One recorded multi-op move: drop two edges, add one back.
  MoveDelta delta;
  state.begin_move();
  net::NodeId parent = 0;
  for (net::NodeId v = 0; v < state.overlay().node_count(); ++v) {
    if (state.overlay().successors(v).size() >= 2) {
      parent = v;
      break;
    }
  }
  const net::NodeId c0 = state.overlay().successors(parent)[0];
  const net::NodeId c1 = state.overlay().successors(parent)[1];
  const double lat = state.overlay().link_latency(parent, c0);
  ASSERT_TRUE(state.remove_link(parent, c0, &delta));
  ASSERT_TRUE(state.remove_link(parent, c1, &delta));
  ASSERT_TRUE(state.add_link(parent, c0, lat, &delta));
  const ComponentDelta d = state.take_move_delta();
  EXPECT_EQ(d.d_edges, -1);

  state.revert(delta);
  EXPECT_EQ(before.edges, state.components().edges);
  EXPECT_EQ(before.unreachable, state.components().unreachable);
  EXPECT_EQ(before.connectivity_deficit,
            state.components().connectivity_deficit);
  const auto& after_dist = state.latencies();
  for (std::size_t v = 0; v < before_dist.size(); ++v) {
    EXPECT_DOUBLE_EQ(before_dist[v], after_dist[v]) << "node " << v;
  }
  EXPECT_TRUE(state.overlay().has_link(parent, c0));
  EXPECT_TRUE(state.overlay().has_link(parent, c1));
}

TEST(GenerateNeighbor, PreservesValidity) {
  AnnealFixture s = make_setup();
  Rng rng(3);
  const AnnealingParams params = fast_params();
  Overlay current = s.tree;
  for (int i = 0; i < 30; ++i) {
    current = generate_neighbor(current, s.topo.graph, s.ranks, params, rng);
    const auto errors = current.validate();
    ASSERT_TRUE(errors.empty()) << "iteration " << i << ": " << errors[0];
  }
}

// Predecessor-fallback fixture, f = 1. Entries A = 2 and B = 3 feed
// layer 2 = {C = 0, D = 1}, which feeds w = 5 and x = 6 in layer 3. Node
// v = 4 (layer 3) keeps one predecessor, B, and has no physical link into
// layers 1-2, so the repair must add a logical link. Every physical pair
// of consecutive layers is already linked, so a move that draws the "add"
// branch changes nothing and the repair step alone decides the result.
Overlay predecessor_fallback_overlay() {
  Overlay o(7, 1);
  o.add_entry_point(2);
  o.add_entry_point(3);
  for (net::NodeId v : {2u, 3u}) o.set_depth(v, 1);
  for (net::NodeId v : {0u, 1u}) o.set_depth(v, 2);
  for (net::NodeId v : {4u, 5u, 6u}) o.set_depth(v, 3);
  for (net::NodeId p : {2u, 3u}) {
    for (net::NodeId c : {0u, 1u}) o.add_link(p, c, 1.0);
  }
  for (net::NodeId p : {0u, 1u}) {
    for (net::NodeId c : {5u, 6u}) o.add_link(p, c, 4.0);
  }
  o.add_link(3, 4, 50.0);
  return o;
}

// The first seed whose first draw takes generate_move's "add" branch.
Rng add_branch_rng() {
  for (std::uint64_t seed = 1;; ++seed) {
    Rng probe(seed);
    if (probe.uniform01() >= 0.5) return Rng(seed);
  }
}

TEST(GenerateNeighbor, PredecessorFallbackTiePrefersShallowerLayer) {
  // A (layer 1) and C (layer 2, lower id) are both 5 ms from v.
  net::Graph g(7);
  g.add_edge(4, 5, 1.0);
  g.add_edge(5, 2, 4.0);
  g.add_edge(5, 0, 4.0);
  const auto from_v = g.shortest_latencies(4);
  ASSERT_EQ(from_v[2], from_v[0]);

  Rng rng = add_branch_rng();
  const Overlay out = generate_neighbor(predecessor_fallback_overlay(), g,
                                        RankTable(7, 0.0), fast_params(), rng);
  EXPECT_EQ(out.predecessors(4), (std::vector<net::NodeId>{3, 2}));
  EXPECT_EQ(out.link_latency(2, 4), 5.0);
}

TEST(GenerateNeighbor, PredecessorFallbackTieInOneLayerPrefersLowerId) {
  // C and D (both layer 2) are 5 ms from v; A is 7 ms away. D is settled
  // first, and C is reached only through the zero-latency link x-C.
  net::Graph g(7);
  g.add_edge(4, 5, 1.0);
  g.add_edge(5, 1, 4.0);
  g.add_edge(5, 6, 4.0);
  g.add_edge(6, 0, 0.0);
  g.add_edge(5, 2, 6.0);
  const auto from_v = g.shortest_latencies(4);
  ASSERT_EQ(from_v[0], from_v[1]);
  ASSERT_LT(from_v[0], from_v[2]);

  Rng rng = add_branch_rng();
  const Overlay out = generate_neighbor(predecessor_fallback_overlay(), g,
                                        RankTable(7, 0.0), fast_params(), rng);
  EXPECT_EQ(out.predecessors(4), (std::vector<net::NodeId>{3, 0}));
  EXPECT_EQ(out.link_latency(0, 4), 5.0);
}

TEST(Anneal, NeverWorseThanInitial) {
  AnnealFixture s = make_setup();
  Rng rng(4);
  const AnnealingParams params = fast_params();
  const double initial = objective_value(s.tree, s.ranks, params.weights);
  const Overlay optimized = anneal(s.tree, s.topo.graph, s.ranks, params, rng);
  EXPECT_LE(objective_value(optimized, s.ranks, params.weights), initial);
}

TEST(Anneal, ResultIsValid) {
  AnnealFixture s = make_setup(60, 2);
  Rng rng(5);
  const Overlay optimized =
      anneal(s.tree, s.topo.graph, s.ranks, fast_params(), rng);
  const auto errors = optimized.validate();
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
}

TEST(Anneal, PrunesEdgesFromDenseBicliqueTree) {
  // On a complete physical graph the robust tree is built from full
  // bicliques between layers; annealing should prune a meaningful share of
  // those redundant links while keeping the structure valid. (On sparse
  // graphs the repair step may legitimately *add* edges to reach f+1
  // successors, so this property is specific to dense initial trees.)
  net::Graph g(30);
  for (net::NodeId a = 0; a < 30; ++a) {
    for (net::NodeId b = a + 1; b < 30; ++b) {
      g.add_edge(a, b, 1.0 + (a * 7 + b) % 13);
    }
  }
  RankTable build_ranks(30, 0.0);
  const Overlay tree = build_robust_tree(g, 1, build_ranks);
  Rng rng(6);
  AnnealingParams params = fast_params();
  params.initial_temperature = 20.0;
  params.moves_per_temperature = 10;
  const RankTable ranks(30, 0.0);
  const Overlay optimized = anneal(tree, g, ranks, params, rng);
  EXPECT_LT(optimized.edge_count(), tree.edge_count());
  EXPECT_TRUE(optimized.is_valid());
}

TEST(Anneal, DeterministicGivenSeed) {
  AnnealFixture s = make_setup();
  Rng r1(9), r2(9);
  const AnnealingParams params = fast_params();
  const Overlay a = anneal(s.tree, s.topo.graph, s.ranks, params, r1);
  const Overlay b = anneal(s.tree, s.topo.graph, s.ranks, params, r2);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (net::NodeId v = 0; v < a.node_count(); ++v) {
    ASSERT_EQ(a.successors(v), b.successors(v));
  }
}

TEST(Builder, BuildsKValidOptimizedOverlays) {
  net::TopologyParams tparams;
  tparams.node_count = 50;
  tparams.min_degree = 5;
  Rng trng(22);
  const net::Topology topo = net::make_topology(tparams, trng);

  BuilderParams params;
  params.f = 1;
  params.k = 4;
  params.annealing = fast_params();
  Rng rng(23);
  const OverlaySet set = build_overlay_set(topo.graph, params, rng);
  ASSERT_EQ(set.overlays.size(), 4u);
  for (const Overlay& o : set.overlays) {
    const auto errors = o.validate();
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
  }
  // Final ranks equal the accumulated root-proximity across overlays.
  for (net::NodeId v = 0; v < 50; ++v) {
    double expected = 0.0;
    for (const Overlay& o : set.overlays) {
      expected += static_cast<double>(o.max_depth()) -
                  static_cast<double>(o.depth(v)) + 1.0;
    }
    EXPECT_DOUBLE_EQ(set.final_ranks[v], expected);
  }
}

TEST(Builder, UnoptimizedModeSkipsAnnealing) {
  net::TopologyParams tparams;
  tparams.node_count = 40;
  Rng trng(24);
  const net::Topology topo = net::make_topology(tparams, trng);
  BuilderParams params;
  params.f = 1;
  params.k = 2;
  params.optimize = false;
  Rng rng(25);
  const OverlaySet set = build_overlay_set(topo.graph, params, rng);
  for (const Overlay& o : set.overlays) EXPECT_TRUE(o.is_valid());
}

}  // namespace
}  // namespace hermes::overlay
