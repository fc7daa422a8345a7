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
    if (pa != SIZE_MAX && pb != SIZE_MAX) EXPECT_LT(pa, pb);
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

TEST(Narwhal, BatchDelayShowsUpInLatency) {
  NarwhalParams slow;
  slow.batch_delay_ms = 200.0;
  NarwhalParams fast;
  fast.batch_delay_ms = 0.0;
  NarwhalProtocol p_slow(slow), p_fast(fast);
  World ws(30, p_slow, 3), wf(30, p_fast, 3);
  ws.start();
  wf.start();
  const Transaction ts = ws.send_from(0);
  const Transaction tf = wf.send_from(0);
  ws.run_ms(3000);
  wf.run_ms(3000);
  const double mean_slow = mean_of(ws.ctx->tracker.latencies(ts.id));
  const double mean_fast = mean_of(wf.ctx->tracker.latencies(tf.id));
  EXPECT_NEAR(mean_slow - mean_fast, 200.0, 40.0);
}

TEST(Mercury, VcsTrafficAccrues) {
  MercuryParams with;
  with.vcs_update_interval_ms = 200.0;
  MercuryParams without;
  without.vcs_update_interval_ms = 0.0;
  MercuryProtocol p_with(with), p_without(without);
  World w1(30, p_with, 9), w2(30, p_without, 9);
  w1.start();
  w2.start();
  w1.run_ms(5000);
  w2.run_ms(5000);
  EXPECT_GT(w1.ctx->network.total().messages_sent, 500u);
  EXPECT_EQ(w2.ctx->network.total().messages_sent, 0u);
}

TEST(TransitFaults, ByzantineIntermediariesDropCrossTraffic) {
  // With transit faults on, messages between non-adjacent nodes die when a
  // Byzantine node sits on the underlay shortest path; neighbor links are
  // unaffected.
  NarwhalParams params;
  params.batch_delay_ms = 0.0;
  NarwhalProtocol protocol(params);
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
  // With a slow uplink, a node sending to everyone pays serialization; the
  // last receivers see noticeably later deliveries than the first.
  net::TopologyParams tp;
  tp.node_count = 60;
  tp.min_degree = 5;
  Rng trng(77);
  sim::NetworkParams np;
  np.link_bandwidth_mbps = 1.0;  // deliberately slow: 250B ~ 2 ms
  NarwhalParams params;
  params.batch_delay_ms = 0.0;
  NarwhalProtocol protocol(params);
  ExperimentContext ctx(net::make_topology(tp, trng), np, 5);
  populate(ctx, protocol);
  const Transaction tx = inject_tx(ctx, 0);
  ctx.engine.run_until(5000.0);
  const auto lats = ctx.tracker.latencies(tx.id);
  const Summary s = summarize(lats);
  // 59 direct sends x ~2.3 ms wire time: the spread must exceed 100 ms.
  EXPECT_GT(s.max - s.min, 100.0);
}

TEST(Serialization, DisabledModelHasNoQueueing) {
  net::TopologyParams tp;
  tp.node_count = 30;
  Rng trng(78);
  sim::NetworkParams np;
  np.link_bandwidth_mbps = 0.0;  // disabled
  np.processing_delay_ms = 0.0;
  ExperimentContext ctx(net::make_topology(tp, trng), np, 6);
  GossipProtocol protocol;
  populate(ctx, protocol);
  // Two messages to the same destination at the same instant arrive at the
  // same pair latency (no uplink queueing).
  const double lat = ctx.network.pair_latency(0, 1);
  sim::Message m;
  m.src = 0;
  m.dst = 1;
  m.type = 99;
  m.wire_bytes = 1000;
  const std::optional<sim::SimTime> t1 = ctx.network.send(m);
  const std::optional<sim::SimTime> t2 = ctx.network.send(m);
  ASSERT_TRUE(t1.has_value() && t2.has_value());
  EXPECT_DOUBLE_EQ(*t1, lat);
  EXPECT_DOUBLE_EQ(*t2, lat);
}

}  // namespace
}  // namespace hermes::protocols
