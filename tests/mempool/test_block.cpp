#include "mempool/block.hpp"

#include <gtest/gtest.h>

#include "../protocols/harness.hpp"
#include "protocols/l0.hpp"

namespace hermes::mempool {
namespace {

TEST(Block, BuildOrdersByPositionThenId) {
  std::vector<OrderedCandidate> candidates{
      {30, 2}, {10, 0}, {20, 1}, {40, 2},  // 30 and 40 tie at position 2
  };
  const Block block = build_block(5, 7, 100.0, candidates, 10);
  EXPECT_EQ(block.proposer, 5u);
  EXPECT_EQ(block.height, 7u);
  EXPECT_EQ(block.tx_ids, (std::vector<std::uint64_t>{10, 20, 30, 40}));
}

TEST(Block, SkipsIneligibleAndTruncates) {
  std::vector<OrderedCandidate> candidates{
      {1, 3}, {2, SIZE_MAX}, {3, 1}, {4, 0}, {5, 2},
  };
  const Block block = build_block(1, 1, 0.0, candidates, 3);
  EXPECT_EQ(block.tx_ids, (std::vector<std::uint64_t>{4, 3, 5}));
  EXPECT_FALSE(block.contains(2));
  EXPECT_FALSE(block.contains(1));  // truncated away
}

TEST(Block, PositionAndOrdering) {
  Block block;
  block.tx_ids = {7, 8, 9};
  EXPECT_EQ(block.position(8), 1u);
  EXPECT_EQ(block.position(99), SIZE_MAX);
  EXPECT_LT(block.position(7), block.position(9));
  EXPECT_GT(block.position(9), block.position(8));
}

TEST(Block, HashBindsContentAndOrder) {
  Block a;
  a.proposer = 1;
  a.height = 5;
  a.tx_ids = {1, 2, 3};
  Block b = a;
  b.tx_ids = {2, 1, 3};
  Block c = a;
  c.height = 6;
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_EQ(a.hash(), [&] { return a.hash(); }());
}

TEST(Block, ProposeBlockMatchesFrontRunVerdict) {
  // The Section VIII-F verdict and the literal block content must agree:
  // attack succeeds iff the adversarial tx precedes the victim in the
  // proposer's block.
  using namespace hermes::protocols;
  GossipProtocol protocol;
  testing::World w(40, protocol, 77);
  w.ctx->assign_behaviors(0.3, Behavior::kFrontRunner);
  w.ctx->attack_enabled = true;
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const Transaction victim = inject_tx(*w.ctx, sender);
  w.run_ms(5000);
  ASSERT_EQ(w.ctx->adversarial_of.count(victim.id), 1u);
  const Transaction& attack = w.ctx->adversarial_of[victim.id];

  for (net::NodeId proposer = 0; proposer < 40; ++proposer) {
    if (!w.ctx->is_honest(proposer)) continue;
    const ProtocolNode& node = w.ctx->node(proposer);
    const Block block = node.propose_block(1, 1000);
    if (!block.contains(victim.id) || !block.contains(attack.id)) continue;
    const bool block_says_attack_first =
        block.position(attack.id) < block.position(victim.id);
    const bool verdict_says_attack_first =
        node.ordering_position(attack) < node.ordering_position(victim);
    EXPECT_EQ(block_says_attack_first, verdict_says_attack_first)
        << "proposer " << proposer;
  }
}

TEST(Block, L0ProposerExcludesUncommittedTxs) {
  // Under LØ's rules a transaction without a commitment is not eligible
  // for a block (ordering_position = SIZE_MAX for unknown commitments is
  // shifted but present; a tx missing entirely never appears).
  using namespace hermes::protocols;
  L0Protocol protocol;
  testing::World w(30, protocol, 78);
  w.start();
  const Transaction tx = w.send_from(2);
  w.run_ms(4000);
  for (net::NodeId v = 0; v < 30; ++v) {
    const Block block = w.ctx->node(v).propose_block(1, 100);
    if (w.ctx->node(v).pool().contains(tx.id)) {
      EXPECT_TRUE(block.contains(tx.id)) << v;
    } else {
      EXPECT_FALSE(block.contains(tx.id)) << v;
    }
  }
}

}  // namespace
}  // namespace hermes::mempool
