// Incremental join placement and warm-started rebuild properties (the
// churn-resilience layer's overlay half): attachments restore full
// validity, the canonical ascending-id application order makes commuting
// join arrivals converge byte-identically, incremental placements stay
// near the annealed optimum, warm-started re-anneals beat scratch builds
// under the same move budget, and join/leave interleavings never break
// survives-removal.
#include "overlay/join.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/topology.hpp"
#include "overlay/builder.hpp"
#include "overlay/encoding.hpp"
#include "overlay/repair.hpp"
#include "overlay/robust_tree.hpp"

namespace hermes::overlay {
namespace {

struct JoinFixture {
  net::Topology topo;
  Overlay tree;
};

JoinFixture make_fixture(std::size_t n = 50, std::size_t f = 1,
                         std::uint64_t seed = 2024) {
  net::TopologyParams tp;
  tp.node_count = n;
  tp.min_degree = 5;
  Rng rng(seed);
  JoinFixture fx{net::make_topology(tp, rng), Overlay{}};
  RankTable ranks(n, 0.0);
  fx.tree = build_robust_tree(fx.topo.graph, f, ranks);
  return fx;
}

// A non-entry node at depth >= 2 whose local repair succeeds (the detach
// half of a churn cycle).
NodeId detachable_node(const JoinFixture& fx, NodeId from = 0) {
  for (NodeId v = from; v < fx.tree.node_count(); ++v) {
    if (!fx.tree.is_entry(v) && fx.tree.depth(v) >= 2) return v;
  }
  return net::NodeId(-1);
}

TEST(JoinPlacement, AttachRestoresFullValidity) {
  JoinFixture fx = make_fixture();
  const NodeId joiner = detachable_node(fx);
  ASSERT_NE(joiner, net::NodeId(-1));
  ASSERT_TRUE(remove_node_locally(fx.tree, joiner, fx.topo.graph).ok);
  ASSERT_EQ(fx.tree.depth(joiner), 0u);

  const RankTable zero_ranks(fx.tree.node_count(), 0.0);
  const ObjectiveWeights weights;
  const double before = objective_components(fx.tree, zero_ranks)
                            .value(fx.tree.node_count(), weights);
  const auto result = attach_node_locally(fx.tree, joiner, fx.topo.graph);
  ASSERT_TRUE(result.ok);
  EXPECT_GE(result.depth, 2u);  // joins never enter the entry layer
  EXPECT_EQ(result.links_added, fx.tree.f() + 1);
  // The reported delta is the exact Eq.-(1) change (typically negative:
  // re-attaching clears the joiner's unreachable penalty).
  const double after = objective_components(fx.tree, zero_ranks)
                           .value(fx.tree.node_count(), weights);
  EXPECT_NEAR(result.objective_delta, after - before, 1e-9);

  // Full validity: every node placed, f+1 predecessors, shallower->deeper.
  const auto errors = fx.tree.validate();
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
  EXPECT_EQ(fx.tree.predecessors(joiner).size(), fx.tree.f() + 1);
  for (NodeId p : fx.tree.predecessors(joiner)) {
    EXPECT_LT(fx.tree.depth(p), fx.tree.depth(joiner));
  }
}

TEST(JoinPlacement, AttachIsAPureFunctionOfTheBaseTree) {
  JoinFixture fx = make_fixture(60, 1, 7);
  const NodeId joiner = detachable_node(fx);
  ASSERT_NE(joiner, net::NodeId(-1));
  ASSERT_TRUE(remove_node_locally(fx.tree, joiner, fx.topo.graph).ok);

  Overlay a = fx.tree;
  Overlay b = fx.tree;
  // Two replicas of one base tree place the joiner byte-identically: the
  // placement reads nothing but (overlay, joiner, graph).
  ASSERT_TRUE(attach_node_locally(a, joiner, fx.topo.graph).ok);
  ASSERT_TRUE(attach_node_locally(b, joiner, fx.topo.graph).ok);
  EXPECT_EQ(encode_overlay(a), encode_overlay(b));
}

// The admission layer applies joins in canonical ascending-id order
// regardless of arrival order (HermesNode::rebuild_repairs). Replicas that
// learned the same join set in different orders therefore converge on
// byte-identical trees.
TEST(JoinPlacement, CommutingJoinOrdersConvergeByteIdentically) {
  JoinFixture fx = make_fixture(60, 1, 11);
  const NodeId a = detachable_node(fx);
  const NodeId b = detachable_node(fx, a + 1);
  ASSERT_NE(a, net::NodeId(-1));
  ASSERT_NE(b, net::NodeId(-1));
  ASSERT_TRUE(remove_node_locally(fx.tree, a, fx.topo.graph).ok);
  ASSERT_TRUE(remove_node_locally(fx.tree, b, fx.topo.graph).ok);

  const auto canonical_apply = [&](std::vector<NodeId> joins) {
    Overlay o = fx.tree;  // same pristine base on every replica
    std::sort(joins.begin(), joins.end());
    for (NodeId j : joins) {
      EXPECT_TRUE(attach_node_locally(o, j, fx.topo.graph).ok);
    }
    return encode_overlay(o);
  };
  // Replica 1 heard (a, b), replica 2 heard (b, a).
  EXPECT_EQ(canonical_apply({a, b}), canonical_apply({b, a}));
}

// Quality bound: re-attaching a churned node incrementally must keep the
// objective within a tight factor of the annealed tree it started from —
// the O(degree) local placement is a stand-in for a full re-anneal, not a
// degradation.
TEST(JoinPlacement, IncrementalPlacementStaysNearAnnealedObjective) {
  JoinFixture fx = make_fixture(50, 1, 13);
  AnnealingParams ap;
  ap.initial_temperature = 5.0;
  ap.min_temperature = 0.5;
  ap.cooling_rate = 0.8;
  ap.moves_per_temperature = 8;
  Rng rng(99);
  Overlay annealed =
      anneal(fx.tree, fx.topo.graph, RankTable(fx.tree.node_count(), 0.0), ap,
             rng);
  const RankTable ranks(annealed.node_count(), 0.0);
  const double v_annealed = objective_value(annealed, ranks, ap.weights);

  const NodeId joiner = [&] {
    for (NodeId v = 0; v < annealed.node_count(); ++v) {
      if (!annealed.is_entry(v) && annealed.depth(v) >= 2) return v;
    }
    return net::NodeId(-1);
  }();
  ASSERT_NE(joiner, net::NodeId(-1));
  ASSERT_TRUE(remove_node_locally(annealed, joiner, fx.topo.graph).ok);
  const auto result =
      attach_node_locally(annealed, joiner, fx.topo.graph, ap.weights);
  ASSERT_TRUE(result.ok);
  const double v_incremental = objective_value(annealed, ranks, ap.weights);
  EXPECT_LT(v_incremental, v_annealed * 1.15)
      << "incremental " << v_incremental << " vs annealed " << v_annealed;
}

BuilderParams small_builder(std::size_t f = 1, std::size_t k = 3) {
  BuilderParams p;
  p.f = f;
  p.k = k;
  p.annealing.initial_temperature = 5.0;
  p.annealing.min_temperature = 1.0;
  p.annealing.cooling_rate = 0.8;
  p.annealing.moves_per_temperature = 4;
  return p;
}

double set_objective(const OverlaySet& set, const BuilderParams& p) {
  const RankTable zero(set.overlays.front().node_count(), 0.0);
  double total = 0.0;
  for (const Overlay& o : set.overlays) {
    total += objective_value(o, zero, p.annealing.weights);
  }
  return total;
}

// Warm-start quality: seeding the re-anneal from the previous epoch's
// trees (with churned nodes surgically moved) must match or beat a scratch
// rebuild under the identical move budget.
TEST(WarmRebuild, WarmStartMatchesOrBeatsScratchUnderFixedBudget) {
  net::TopologyParams tp;
  tp.node_count = 40;
  tp.min_degree = 5;
  Rng trng(31);
  const net::Topology topo = net::make_topology(tp, trng);
  const BuilderParams params = small_builder();

  Rng r0(1);
  const OverlaySet previous = build_overlay_set(topo.graph, params, r0);

  std::vector<NodeId> churned;
  for (NodeId v = 0; v < topo.graph.node_count() && churned.size() < 2; ++v) {
    if (!previous.overlays.front().is_entry(v) &&
        previous.overlays.front().depth(v) >= 2) {
      churned.push_back(v);
    }
  }
  ASSERT_EQ(churned.size(), 2u);

  Rng r1(2);
  const OverlaySet warm =
      build_overlay_set_warm(topo.graph, params, previous, churned, r1);
  Rng r2(2);
  const OverlaySet scratch = build_overlay_set(topo.graph, params, r2);

  ASSERT_EQ(warm.overlays.size(), params.k);
  for (const Overlay& o : warm.overlays) {
    const auto errors = o.validate();
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
  }
  // The warm seed starts from an already-annealed generation, so the same
  // (short) move budget must not end up worse than annealing a fresh
  // greedy tree. Small slack absorbs move-acceptance noise.
  EXPECT_LE(set_objective(warm, params), set_objective(scratch, params) * 1.02)
      << "warm start lost to scratch under an identical budget";
}

// Determinism: the warm rebuild is a pure function of its inputs, so two
// builds from the same inputs give the same encodings.
TEST(WarmRebuild, DeterministicGivenInputs) {
  net::TopologyParams tp;
  tp.node_count = 40;
  tp.min_degree = 5;
  Rng trng(31);
  const net::Topology topo = net::make_topology(tp, trng);
  const BuilderParams params = small_builder();

  Rng r0(1);
  const OverlaySet previous = build_overlay_set(topo.graph, params, r0);
  std::vector<NodeId> churned;
  for (NodeId v = 0; v < topo.graph.node_count() && churned.size() < 3; ++v) {
    if (!previous.overlays.front().is_entry(v) &&
        previous.overlays.front().depth(v) >= 2) {
      churned.push_back(v);
    }
  }
  ASSERT_EQ(churned.size(), 3u);

  std::vector<Bytes> encodings;
  for (int build = 0; build < 2; ++build) {
    Rng r(7);
    const OverlaySet warm =
        build_overlay_set_warm(topo.graph, params, previous, churned, r);
    Bytes all;
    for (const Overlay& o : warm.overlays) {
      const Bytes enc = encode_overlay(o);
      all.insert(all.end(), enc.begin(), enc.end());
    }
    encodings.push_back(std::move(all));
  }
  EXPECT_EQ(encodings[0], encodings[1]);
}

// Interleaved join/leave churn: at every step the tree (with currently
// departed nodes absent) keeps every survivor f+1-connected, and once all
// nodes are back it passes full validation plus survives-removal of any
// single node.
TEST(JoinPlacement, JoinLeaveInterleavingsPreserveSurvivesRemoval) {
  JoinFixture fx = make_fixture(60, 1, 17);
  std::vector<NodeId> out;  // currently departed, kept sorted
  Rng rng(5);
  for (int step = 0; step < 24; ++step) {
    const bool leave = out.empty() || (out.size() < 3 && rng.bernoulli(0.5));
    if (leave) {
      const NodeId v = [&]() -> NodeId {
        for (NodeId c = static_cast<NodeId>(rng.uniform_u64(60));;
             c = (c + 1) % 60) {
          if (fx.tree.is_entry(c) || fx.tree.depth(c) < 2) continue;
          if (std::find(out.begin(), out.end(), c) == out.end()) return c;
        }
      }();
      ASSERT_TRUE(remove_node_locally(fx.tree, v, fx.topo.graph).ok)
          << "step " << step;
      out.insert(std::upper_bound(out.begin(), out.end(), v), v);
    } else {
      const NodeId v = out.front();
      out.erase(out.begin());
      ASSERT_TRUE(attach_node_locally(fx.tree, v, fx.topo.graph).ok)
          << "step " << step;
    }
    const auto errors = validate_with_absent(fx.tree, out);
    ASSERT_TRUE(errors.empty())
        << "step " << step << ": " << errors[0];
  }
  while (!out.empty()) {
    const NodeId v = out.front();
    out.erase(out.begin());
    ASSERT_TRUE(attach_node_locally(fx.tree, v, fx.topo.graph).ok);
  }
  const auto errors = fx.tree.validate();
  ASSERT_TRUE(errors.empty()) << errors[0];
  for (NodeId v = 0; v < fx.tree.node_count(); ++v) {
    EXPECT_TRUE(survives_removal(fx.tree, std::vector<NodeId>{v})) << v;
  }
}

}  // namespace
}  // namespace hermes::overlay
