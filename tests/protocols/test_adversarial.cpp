// Cross-protocol adversarial-machinery tests: ordering judges, censorship
// via relays_tx, Narwhal certificate ordering and ack withholding, LØ
// commitment ordering, and the serialization model feeding Figure 3a.
#include <gtest/gtest.h>

#include "harness.hpp"
#include "protocols/l0.hpp"
#include "protocols/mercury.hpp"
#include "protocols/narwhal.hpp"
#include "support/stats.hpp"

namespace hermes::protocols {
namespace {

using testing::World;

TEST(OrderingJudge, DefaultUsesArrivalOrder) {
  GossipProtocol protocol;
  World w(20, protocol);
  w.start();
  const Transaction a = w.send_from(0);
  w.run_ms(1500);
  const Transaction b = w.send_from(1);
  w.run_ms(1500);
  // At any node holding both, a precedes b.
  for (net::NodeId v = 0; v < 20; ++v) {
    const auto& node = w.ctx->node(v);
    const std::size_t pa = node.ordering_position(a);
    const std::size_t pb = node.ordering_position(b);
    if (pa != SIZE_MAX && pb != SIZE_MAX) {
      EXPECT_LT(pa, pb);
    }
  }
}

TEST(OrderingJudge, L0UsesCommitmentOrder) {
  L0Protocol protocol;
  World w(30, protocol);
  w.start();
  const Transaction a = w.send_from(0);
  w.run_ms(2500);
  const Transaction b = w.send_from(1);
  w.run_ms(4000);
  std::size_t judged = 0;
  for (net::NodeId v = 0; v < 30; ++v) {
    const auto& node = w.ctx->node(v);
    if (node.pool().has_commitment(a.hash()) &&
        node.pool().has_commitment(b.hash())) {
      EXPECT_LT(node.ordering_position(a), node.ordering_position(b));
      ++judged;
    }
  }
  EXPECT_GT(judged, 20u);
}

TEST(OrderingJudge, NarwhalUsesCertificateOrder) {
  NarwhalProtocol protocol;
  World w(30, protocol);
  w.start();
  const Transaction a = w.send_from(0);
  w.run_ms(2500);
  const Transaction b = w.send_from(1);
  w.run_ms(4000);
  std::size_t judged = 0;
  for (net::NodeId v = 0; v < 30; ++v) {
    const auto& node = w.ctx->node(v);
    const std::size_t pa = node.ordering_position(a);
    const std::size_t pb = node.ordering_position(b);
    if (pa != SIZE_MAX && pb != SIZE_MAX && pa < (1 << 20) && pb < (1 << 20)) {
      EXPECT_LT(pa, pb);
      ++judged;
    }
  }
  EXPECT_GT(judged, 20u);  // certificates reached (almost) everyone
}

TEST(Censorship, FrontRunnersWithholdVictimInGossip) {
  // A single-path topology would show censorship directly; with gossip's
  // redundancy we instead verify the relays_tx predicate itself.
  GossipProtocol protocol;
  World w(20, protocol);
  w.ctx->assign_behaviors(0.3, Behavior::kFrontRunner);
  w.ctx->attack_enabled = true;
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const Transaction victim = inject_tx(*w.ctx, sender);
  w.run_ms(3000);
  ASSERT_EQ(w.ctx->adversarial_of.count(victim.id), 1u);
  const Transaction& attack = w.ctx->adversarial_of[victim.id];
  for (net::NodeId v = 0; v < 20; ++v) {
    const auto& node = w.ctx->node(v);
    if (node.behavior() == Behavior::kFrontRunner) {
      EXPECT_FALSE(node.relays_tx(victim));
      EXPECT_TRUE(node.relays_tx(attack));  // own traffic flows
    } else if (node.behavior() == Behavior::kHonest) {
      EXPECT_TRUE(node.relays_tx(victim));
    }
  }
}

TEST(Censorship, AttackerIdentityIsTracked) {
  GossipProtocol protocol;
  World w(20, protocol);
  w.ctx->assign_behaviors(0.3, Behavior::kFrontRunner);
  w.ctx->attack_enabled = true;
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const Transaction victim = inject_tx(*w.ctx, sender);
  w.run_ms(3000);
  ASSERT_EQ(w.ctx->adversarial_of.count(victim.id), 1u);
  const net::NodeId attacker = w.ctx->adversarial_of[victim.id].sender;
  EXPECT_EQ(w.ctx->behaviors[attacker], Behavior::kFrontRunner);
  EXPECT_TRUE(w.ctx->node(attacker).is_my_victim(victim));
  // Other front-runners did not attack this victim.
  for (net::NodeId v = 0; v < 20; ++v) {
    if (v != attacker && w.ctx->behaviors[v] == Behavior::kFrontRunner) {
      EXPECT_FALSE(w.ctx->node(v).is_my_victim(victim));
    }
  }
}

TEST(Mercury, VcsTrafficAccrues) {
  // Without a single transaction, the VCS upkeep alone keeps Mercury's
  // links busy: every node updates each of its peers once per interval.
  MercuryProtocol protocol;
  World w(30, protocol, 9);
  w.start();
  w.run_ms(5000);
  EXPECT_GT(w.ctx->network.total().messages_sent, 500u);
}

TEST(TransitFaults, ByzantineIntermediariesDropCrossTraffic) {
  // With transit faults on, messages between non-adjacent nodes die when a
  // Byzantine node sits on the underlay shortest path; neighbor links are
  // unaffected.
  NarwhalProtocol protocol;
  World w(40, protocol, 31);
  w.ctx->assign_behaviors(0.4, Behavior::kDropper);
  enable_transit_faults(*w.ctx);
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const auto before = w.ctx->network.dropped_messages();
  inject_tx(*w.ctx, sender);
  w.run_ms(3000);
  EXPECT_GT(w.ctx->network.dropped_messages(), before);
}

TEST(TransitFaults, NeighborTrafficUnaffected) {
  GossipProtocol protocol;  // gossip uses only neighbor links
  World w(30, protocol, 32);
  w.ctx->assign_behaviors(0.3, Behavior::kDropper);
  enable_transit_faults(*w.ctx);
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const Transaction tx = inject_tx(*w.ctx, sender);
  w.run_ms(4000);
  // Neighbor-link gossip through honest relays still covers a majority.
  EXPECT_GT(honest_coverage(*w.ctx, tx), 0.5);
}

TEST(Serialization, UplinkQueueDelaysWideFanouts) {
  // A node sending to everyone at once pays serialization: each message
  // leaves the uplink one wire time (bytes / kLinkBandwidthMbps) after the
  // previous one, so the k-th receiver waits k wire times on top of its
  // pair latency and the processing delay.
  net::TopologyParams tp;
  tp.node_count = 60;
  tp.min_degree = 5;
  Rng trng(77);
  ExperimentContext ctx(net::make_topology(tp, trng), sim::NetworkParams{}, 5);
  GossipProtocol protocol;
  populate(ctx, protocol);
  constexpr std::size_t kBytes = 1000;
  const double wire_ms =
      static_cast<double>(kBytes) * 8.0 / (sim::kLinkBandwidthMbps * 1000.0);
  for (net::NodeId dst = 1; dst < 60; ++dst) {
    sim::Message m;
    m.src = 0;
    m.dst = dst;
    m.type = 99;
    m.wire_bytes = kBytes;
    const std::optional<sim::SimTime> at = ctx.network.send(m);
    ASSERT_TRUE(at.has_value());
    const double queued =
        *at - ctx.network.pair_latency(0, dst) - sim::kProcessingDelayMs;
    EXPECT_NEAR(queued, static_cast<double>(dst) * wire_ms, 1e-9)
        << "dst " << dst;
  }
}

}  // namespace
}  // namespace hermes::protocols
