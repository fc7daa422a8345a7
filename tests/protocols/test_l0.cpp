#include "protocols/l0.hpp"

#include <gtest/gtest.h>

#include "harness.hpp"
#include "support/stats.hpp"

namespace hermes::protocols {
namespace {

using testing::World;

TEST(L0, ReachesAllHonestNodesEventually) {
  L0Protocol protocol;
  World w(40, protocol);
  w.start();
  const Transaction tx = w.send_from(1);
  w.run_ms(6000);
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
}

TEST(L0, ReconciliationRepairsLossyLinks) {
  // With 20% message loss, low-fanout gossip alone leaves holes; the
  // periodic digest exchange must close them.
  sim::NetworkParams lossy;
  lossy.drop_probability = 0.2;
  L0Protocol protocol;
  World w(40, protocol, 99, lossy);
  w.start();
  const Transaction tx = w.send_from(1);
  w.run_ms(15000);
  EXPECT_GT(honest_coverage(*w.ctx, tx), 0.95);
}

TEST(L0, ReconciliationRoundsHappen) {
  L0Protocol protocol;
  World w(20, protocol);
  w.start();
  w.send_from(0);
  w.run_ms(3000);
  std::size_t total_rounds = 0;
  for (net::NodeId v = 0; v < 20; ++v) {
    total_rounds +=
        static_cast<const L0Node&>(w.ctx->node(v)).reconciliations_started();
  }
  // Lazy reconciliation: at least one eager round per node while the tx
  // spreads, plus slow keepalives.
  EXPECT_GT(total_rounds, 15u);
}

TEST(L0, CommitmentsPropagate) {
  L0Protocol protocol;
  World w(30, protocol);
  w.start();
  const Transaction tx = w.send_from(2);
  w.run_ms(4000);
  // A majority of nodes should hold the commitment for the tx hash.
  std::size_t holders = 0;
  for (net::NodeId v = 0; v < 30; ++v) {
    if (w.ctx->node(v).pool().has_commitment(tx.hash())) ++holders;
  }
  EXPECT_GT(holders, 15u);
}

TEST(L0, SlowerThanPlainGossipOnAverage) {
  // LØ's low fanout trades latency for bandwidth (Figure 3a vs 3b).
  GossipParams gp;
  gp.fanout = 8;
  GossipProtocol gossip(gp);
  L0Protocol l0;
  World wg(50, gossip, 7), wl(50, l0, 7);
  wg.start();
  wl.start();
  const Transaction tg = wg.send_from(0);
  const Transaction tl = wl.send_from(0);
  wg.run_ms(10000);
  wl.run_ms(10000);
  const auto lg = wg.ctx->tracker.latencies(tg.id);
  const auto ll = wl.ctx->tracker.latencies(tl.id);
  ASSERT_FALSE(lg.empty());
  ASSERT_FALSE(ll.empty());
  EXPECT_LT(mean_of(lg), mean_of(ll));
}

TEST(L0, LowerBandwidthThanPlainGossip) {
  GossipProtocol gossip;
  L0Protocol l0;
  World wg(50, gossip, 8), wl(50, l0, 8);
  wg.start();
  wl.start();
  wg.send_from(0);
  wl.send_from(0);
  // Compare over the same horizon, before reconciliation dominates.
  wg.run_ms(2000);
  wl.run_ms(2000);
  EXPECT_LT(wl.ctx->network.total().bytes_sent,
            wg.ctx->network.total().bytes_sent);
}

TEST(L0, DroppersDegradeCoverageWithoutRepairServing) {
  L0Protocol protocol;
  World w(50, protocol, 11);
  w.ctx->assign_behaviors(0.3, Behavior::kDropper);
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const Transaction tx = inject_tx(*w.ctx, sender);
  w.run_ms(8000);
  const double cov = honest_coverage(*w.ctx, tx);
  EXPECT_GT(cov, 0.6);  // reconciliation among honest nodes still works
}

}  // namespace
}  // namespace hermes::protocols
