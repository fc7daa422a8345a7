// Network partition tests: the simulator's split-brain switch and the
// protocols' behaviour across a partition + heal cycle.
#include <gtest/gtest.h>

#include "../protocols/harness.hpp"
#include "protocols/l0.hpp"

namespace hermes::protocols {
namespace {

using testing::World;

std::vector<int> half_split(std::size_t n) {
  std::vector<int> partition(n, 0);
  for (std::size_t v = n / 2; v < n; ++v) partition[v] = 1;
  return partition;
}

TEST(Partition, MessagesDoNotCrossPartitions) {
  GossipProtocol protocol;
  World w(30, protocol);
  w.start();
  w.ctx->network.set_partition(half_split(30));
  const Transaction tx = w.send_from(0);  // partition 0
  w.run_ms(4000);
  for (net::NodeId v = 15; v < 30; ++v) {
    EXPECT_FALSE(w.ctx->tracker.delivered(tx.id, v)) << v;
  }
  // The sender's own side is fully covered (gossip within the partition).
  std::size_t own_side = 0;
  for (net::NodeId v = 1; v < 15; ++v) {
    if (w.ctx->tracker.delivered(tx.id, v)) ++own_side;
  }
  EXPECT_GT(own_side, 10u);
}

TEST(Partition, HealRestoresConnectivity) {
  GossipProtocol protocol;
  World w(30, protocol);
  w.start();
  w.ctx->network.set_partition(half_split(30));
  // Partitioned: a transaction reaches at most the sender's 14 peers of 29.
  const Transaction split = w.send_from(0);
  w.run_ms(4000);
  EXPECT_LT(honest_coverage(*w.ctx, split), 0.5);
  w.ctx->network.heal_partition();
  const Transaction tx = w.send_from(0);
  w.run_ms(4000);
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
}

TEST(Partition, L0ReconciliationHealsAfterPartition) {
  // A tx spreads on one side during the partition; after healing, LØ's
  // periodic reconciliation carries it across — the mempool repair story.
  L0Protocol protocol;
  World w(30, protocol);
  w.start();
  w.ctx->network.set_partition(half_split(30));
  const Transaction tx = w.send_from(2);
  w.run_ms(4000);
  double before = honest_coverage(*w.ctx, tx);
  EXPECT_LT(before, 0.6);
  w.ctx->network.heal_partition();
  w.run_ms(15000);
  EXPECT_GT(honest_coverage(*w.ctx, tx), 0.95);
}

TEST(Partition, DroppedCounterAccountsForCrossTraffic) {
  GossipProtocol protocol;
  World w(20, protocol);
  w.start();
  w.ctx->network.set_partition(half_split(20));
  const auto dropped_before = w.ctx->network.dropped_messages();
  w.send_from(0);
  w.run_ms(3000);
  EXPECT_GT(w.ctx->network.dropped_messages(), dropped_before);
}

}  // namespace
}  // namespace hermes::protocols
