// Local overlay repair tests (the Section IX future-work direction).
#include "overlay/repair.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "overlay/robust_tree.hpp"

namespace hermes::overlay {
namespace {

struct RepairFixture {
  net::Topology topo;
  Overlay tree;
};

RepairFixture make_fixture(std::size_t n = 50, std::size_t f = 1,
                           std::uint64_t seed = 2024) {
  net::TopologyParams tp;
  tp.node_count = n;
  tp.min_degree = 5;
  Rng rng(seed);
  RepairFixture fx{net::make_topology(tp, rng), Overlay{}};
  RankTable ranks(n, 0.0);
  fx.tree = build_robust_tree(fx.topo.graph, f, ranks);
  return fx;
}

TEST(LocalRepair, LeafDepartureIsTrivial) {
  RepairFixture fx = make_fixture();
  // Find a leaf (no successors).
  NodeId leaf = net::NodeId(-1);
  for (NodeId v = 0; v < fx.tree.node_count(); ++v) {
    if (!fx.tree.is_entry(v) && fx.tree.successors(v).empty()) {
      leaf = v;
      break;
    }
  }
  ASSERT_NE(leaf, net::NodeId(-1));
  const auto result = remove_node_locally(fx.tree, leaf, fx.topo.graph);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.links_added, 0u);  // nobody depended on a leaf
  EXPECT_FALSE(result.promoted_entry);
  const std::vector<NodeId> absent{leaf};
  EXPECT_TRUE(validate_with_absent(fx.tree, absent).empty());
}

TEST(LocalRepair, MidTreeDepartureRepairsChildren) {
  RepairFixture fx = make_fixture();
  // Find an internal non-entry node with several children.
  NodeId internal = net::NodeId(-1);
  for (NodeId v = 0; v < fx.tree.node_count(); ++v) {
    if (!fx.tree.is_entry(v) && fx.tree.successors(v).size() >= 2) {
      internal = v;
      break;
    }
  }
  ASSERT_NE(internal, net::NodeId(-1));
  const auto result = remove_node_locally(fx.tree, internal, fx.topo.graph);
  ASSERT_TRUE(result.ok);
  const std::vector<NodeId> absent{internal};
  const auto errors = validate_with_absent(fx.tree, absent);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
  // Every surviving non-entry node still has f+1 predecessors.
  for (NodeId v = 0; v < fx.tree.node_count(); ++v) {
    if (v == internal || fx.tree.is_entry(v)) continue;
    EXPECT_GE(fx.tree.predecessors(v).size(), 2u) << v;
  }
}

TEST(LocalRepair, EntryDeparturePromotesReplacement) {
  RepairFixture fx = make_fixture();
  const NodeId entry = fx.tree.entry_points()[0];
  const auto result = remove_node_locally(fx.tree, entry, fx.topo.graph);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.promoted_entry);
  EXPECT_EQ(fx.tree.entry_points().size(), 2u);  // f+1 restored
  EXPECT_FALSE(fx.tree.is_entry(entry));
  const std::vector<NodeId> absent{entry};
  const auto errors = validate_with_absent(fx.tree, absent);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
}

TEST(LocalRepair, SequentialChurnStaysValid) {
  RepairFixture fx = make_fixture(60, 1, 9);
  std::vector<NodeId> departed;
  Rng rng(1);
  for (int round = 0; round < 8; ++round) {
    // Pick any still-present node.
    NodeId victim;
    do {
      victim = static_cast<NodeId>(rng.uniform_u64(60));
    } while (std::find(departed.begin(), departed.end(), victim) !=
             departed.end());
    const auto result = remove_node_locally(fx.tree, victim, fx.topo.graph);
    if (!result.ok) continue;  // local repair may refuse; overlay unchanged
    departed.push_back(victim);
    const auto errors = validate_with_absent(fx.tree, departed);
    ASSERT_TRUE(errors.empty())
        << "round " << round << ": " << errors[0];
  }
  EXPECT_GE(departed.size(), 5u);  // most departures repairable locally
}

TEST(LocalRepair, SequentialDeparturesDownToMinimumPopulation) {
  // Harder sequential-churn property: keep removing random nodes until
  // only f+2 participants remain (entry layer + one dependent). After
  // every accepted repair the overlay must validate with the departed set
  // absent AND still tolerate the loss of any f of the survivors — the
  // paper's resilience bound must survive arbitrarily long repair chains,
  // not just the first few.
  constexpr std::size_t kN = 24;
  constexpr std::size_t kF = 1;
  RepairFixture fx = make_fixture(kN, kF, 31);
  Rng rng(7);
  std::vector<NodeId> departed;
  bool progress = true;
  while (progress && kN - departed.size() > kF + 2) {
    progress = false;
    std::vector<NodeId> remaining;
    for (NodeId v = 0; v < kN; ++v) {
      if (std::find(departed.begin(), departed.end(), v) == departed.end()) {
        remaining.push_back(v);
      }
    }
    rng.shuffle(remaining);
    for (NodeId victim : remaining) {
      const auto result = remove_node_locally(fx.tree, victim, fx.topo.graph);
      if (!result.ok) continue;  // refusal leaves the overlay untouched
      departed.push_back(victim);
      progress = true;
      const auto errors = validate_with_absent(fx.tree, departed);
      ASSERT_TRUE(errors.empty())
          << departed.size() << " departed: " << errors[0];
      // f-resilience of the repaired tree: losing any single survivor
      // must not disconnect anyone.
      std::vector<NodeId> absent = departed;
      absent.push_back(victim);  // placeholder, overwritten below
      for (NodeId extra : remaining) {
        if (extra == victim) continue;
        absent.back() = extra;
        ASSERT_TRUE(survives_removal(fx.tree, absent))
            << departed.size() << " departed; removing survivor " << extra
            << " disconnects the repaired tree";
      }
      break;  // re-randomize the victim order each round
    }
  }
  // Local repair must carry the overlay through at least half its
  // population before refusing (refusals hand over to a full rebuild).
  EXPECT_GE(departed.size(), kN / 2);
}

TEST(LocalRepair, TinyOverlaySucceedsByPromotion) {
  // Removing an entry from a 3-node overlay is repairable: the only child
  // is promoted into the entry set and nothing is left needing
  // predecessors.
  Overlay o(3, 1);
  o.add_entry_point(0);
  o.add_entry_point(1);
  o.set_depth(2, 2);
  o.add_link(0, 2, 1.0);
  o.add_link(1, 2, 1.0);
  net::Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 2, 1.0);
  ASSERT_TRUE(o.is_valid());
  const auto result = remove_node_locally(o, 0, g);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.promoted_entry);
  const std::vector<NodeId> absent{0};
  EXPECT_TRUE(validate_with_absent(o, absent).empty());
}

TEST(LocalRepair, FailureLeavesOverlayUntouched) {
  // Entries {0,1}, children {2,3} each linked to both entries; node 3 has
  // no physical edge at all (its overlay links are logical). After entry 0
  // departs and one child is promoted, the other child has no path, direct
  // or multi-hop, to a second predecessor.
  Overlay o(4, 1);
  o.add_entry_point(0);
  o.add_entry_point(1);
  o.set_depth(2, 2);
  o.set_depth(3, 2);
  o.add_link(0, 2, 1.0);
  o.add_link(1, 2, 1.0);
  o.add_link(0, 3, 1.0);
  o.add_link(1, 3, 1.0);
  net::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 2, 1.0);  // node 3 is isolated
  ASSERT_TRUE(o.is_valid());
  const Overlay before = o;
  const auto result = remove_node_locally(o, 0, g);
  EXPECT_FALSE(result.ok);
  // Unchanged on failure.
  EXPECT_EQ(o.edge_count(), before.edge_count());
  EXPECT_EQ(o.entry_points(), before.entry_points());
  EXPECT_TRUE(o.is_valid());
}

TEST(LocalRepair, CheaperThanRebuild) {
  // The point of the exercise: a local repair touches a handful of links.
  RepairFixture fx = make_fixture(80, 1, 13);
  const std::size_t edges = fx.tree.edge_count();
  NodeId internal = net::NodeId(-1);
  for (NodeId v = 0; v < fx.tree.node_count(); ++v) {
    if (!fx.tree.is_entry(v) && !fx.tree.successors(v).empty()) internal = v;
  }
  ASSERT_NE(internal, net::NodeId(-1));
  const auto result = remove_node_locally(fx.tree, internal, fx.topo.graph);
  ASSERT_TRUE(result.ok);
  EXPECT_LT(result.links_added + result.links_removed, edges / 4);
}

}  // namespace
}  // namespace hermes::overlay
