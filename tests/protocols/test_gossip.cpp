#include "protocols/gossip.hpp"

#include <gtest/gtest.h>

#include "harness.hpp"

namespace hermes::protocols {
namespace {

using testing::World;

TEST(Gossip, ReachesAllHonestNodes) {
  GossipProtocol protocol;
  World w(40, protocol);
  w.start();
  const Transaction tx = w.send_from(3);
  w.run_ms(3000);
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
}

TEST(Gossip, LatencyIsPositiveAndBounded) {
  GossipProtocol protocol;
  World w(40, protocol);
  w.start();
  const Transaction tx = w.send_from(0);
  w.run_ms(3000);
  const auto lats = w.ctx->tracker.latencies(tx.id);
  ASSERT_FALSE(lats.empty());
  std::size_t positive = 0;
  for (double l : lats) {
    // The origin self-delivers at creation time (latency 0); every other
    // node pays at least one link.
    EXPECT_GE(l, 0.0);
    EXPECT_LT(l, 3000.0);
    if (l > 0.0) ++positive;
  }
  EXPECT_GE(positive, lats.size() - 1);
}

TEST(Gossip, MultipleSendersAllDeliver) {
  GossipProtocol protocol;
  World w(30, protocol);
  w.start();
  std::vector<Transaction> txs;
  for (net::NodeId s : {0u, 7u, 13u, 29u}) txs.push_back(w.send_from(s));
  w.run_ms(3000);
  for (const auto& tx : txs) {
    EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0) << tx.id;
  }
}

TEST(Gossip, DroppersReduceButDoNotStopPropagation) {
  GossipParams params;
  params.fanout = 4;
  GossipProtocol protocol(params);
  World w(60, protocol);
  w.ctx->assign_behaviors(0.3, Behavior::kDropper);
  w.start();
  net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const Transaction tx = inject_tx(*w.ctx, sender);
  w.run_ms(4000);
  const double cov = honest_coverage(*w.ctx, tx);
  EXPECT_GT(cov, 0.5);  // gossip redundancy survives 30% droppers
}

TEST(Gossip, FrontRunnerLaunchesAttackOnObservation) {
  GossipProtocol protocol;
  World w(40, protocol);
  w.ctx->assign_behaviors(0.25, Behavior::kFrontRunner);
  w.ctx->attack_enabled = true;
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const Transaction victim = inject_tx(*w.ctx, sender);
  w.run_ms(4000);
  ASSERT_EQ(w.ctx->adversarial_of.count(victim.id), 1u);
  Rng judge(1);
  const AttackOutcome outcome = front_run_outcome(*w.ctx, victim, judge);
  EXPECT_NE(outcome, AttackOutcome::kNoAttack);
}

TEST(Gossip, NoAttackWithoutFrontRunners) {
  GossipProtocol protocol;
  World w(30, protocol);
  w.ctx->attack_enabled = true;  // enabled but nobody is malicious
  w.start();
  const Transaction victim = w.send_from(2);
  w.run_ms(2000);
  Rng judge(2);
  EXPECT_EQ(front_run_outcome(*w.ctx, victim, judge), AttackOutcome::kNoAttack);
}

TEST(Gossip, OnlyFirstObserverAttacks) {
  GossipProtocol protocol;
  World w(40, protocol);
  w.ctx->assign_behaviors(0.4, Behavior::kFrontRunner);
  w.ctx->attack_enabled = true;
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  inject_tx(*w.ctx, sender);
  w.run_ms(4000);
  // Exactly one adversarial tx per victim despite many front-runners.
  EXPECT_EQ(w.ctx->adversarial_of.size(), 1u);
}

TEST(Gossip, BandwidthScalesWithFanout) {
  GossipParams small;
  small.fanout = 2;
  GossipParams large;
  large.fanout = 10;
  GossipProtocol p_small(small), p_large(large);
  World w1(40, p_small), w2(40, p_large);
  w1.start();
  w2.start();
  w1.send_from(0);
  w2.send_from(0);
  w1.run_ms(3000);
  w2.run_ms(3000);
  EXPECT_LT(w1.ctx->network.total().bytes_sent,
            w2.ctx->network.total().bytes_sent);
}

TEST(Gossip, CrashedNodesAreNotDelivered) {
  GossipProtocol protocol;
  World w(30, protocol);
  w.start();
  w.ctx->network.set_crashed(5, true);
  const Transaction tx = w.send_from(0);
  w.run_ms(3000);
  EXPECT_FALSE(w.ctx->tracker.delivered(tx.id, 5));
}

}  // namespace
}  // namespace hermes::protocols
