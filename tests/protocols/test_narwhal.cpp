#include "protocols/narwhal.hpp"

#include "protocols/l0.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "harness.hpp"
#include "support/stats.hpp"

namespace hermes::protocols {
namespace {

using testing::World;

TEST(Narwhal, DirectBroadcastReachesEveryone) {
  NarwhalProtocol protocol;
  World w(30, protocol);
  w.start();
  const Transaction tx = w.send_from(4);
  w.run_ms(2000);
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
}

TEST(Narwhal, CertificateFormsWithHonestQuorum) {
  NarwhalProtocol protocol;
  World w(30, protocol);
  w.start();
  const Transaction tx = w.send_from(4);
  w.run_ms(2000);
  (void)tx;
  EXPECT_EQ(
      static_cast<const NarwhalNode&>(w.ctx->node(4)).certificates_formed(),
      1u);
}

TEST(Narwhal, CertificateFormsDespiteByzantineAckWithholding) {
  NarwhalProtocol protocol;
  World w(40, protocol);
  w.ctx->assign_behaviors(0.30, Behavior::kDropper);  // below 1/3
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const Transaction tx = inject_tx(*w.ctx, sender);
  w.run_ms(3000);
  (void)tx;
  EXPECT_EQ(static_cast<const NarwhalNode&>(w.ctx->node(sender))
                .certificates_formed(),
            1u);
}

TEST(Narwhal, RepairPullsLostBatches) {
  sim::NetworkParams lossy;
  lossy.drop_probability = 0.15;
  NarwhalProtocol protocol;
  World w(40, protocol, 55, lossy);
  w.start();
  const Transaction tx = w.send_from(2);
  w.run_ms(5000);
  // Direct sends lose ~15%, cert-driven repair should close nearly all.
  EXPECT_GT(honest_coverage(*w.ctx, tx), 0.95);
}

TEST(Narwhal, RepairRetriesAfterTimeout) {
  // Heavy loss kills many first-round fetches and their responses; the
  // timeout-driven retry rounds still close (almost) every hole. (Loss
  // beyond ~1/3 starves the ack quorum itself and no certificate forms —
  // a real property of the protocol, not of the repair.)
  sim::NetworkParams lossy;
  lossy.drop_probability = 0.25;
  NarwhalProtocol protocol;
  World w(40, protocol, 66, lossy);
  w.start();
  const Transaction tx = w.send_from(2);
  w.run_ms(8000);
  EXPECT_GT(honest_coverage(*w.ctx, tx), 0.9);
}

TEST(Narwhal, LatencyIsBatchDelayPlusFloodSpread) {
  NarwhalProtocol protocol;
  World w(40, protocol);
  w.start();
  const Transaction tx = w.send_from(0);
  w.run_ms(3000);
  const auto lats = w.ctx->tracker.latencies(tx.id);
  ASSERT_FALSE(lats.empty());
  // Flooding over the topology: batch delay + a couple of link hops.
  EXPECT_GT(percentile_of(lats, 50.0), NarwhalNode::kBatchDelayMs);
  EXPECT_LT(percentile_of(lats, 95.0), 330.0 + NarwhalNode::kBatchDelayMs);
}

TEST(Narwhal, HighestBandwidthAmongBaselines) {
  // Quorum-sized certificates make Narwhal's per-tx cost grow with n; at
  // n = 100 it already exceeds fanout-bounded gossip and LØ (Figure 3b).
  NarwhalProtocol narwhal;
  GossipProtocol gossip;
  L0Protocol l0;
  World wn(100, narwhal, 3), wg(100, gossip, 3), wl(100, l0, 3);
  wn.start();
  wg.start();
  wl.start();
  wn.send_from(0);
  wg.send_from(0);
  wl.send_from(0);
  wn.run_ms(3000);
  wg.run_ms(3000);
  wl.run_ms(3000);
  EXPECT_GT(wn.ctx->network.total().bytes_sent,
            wg.ctx->network.total().bytes_sent);
  EXPECT_GT(wn.ctx->network.total().bytes_sent,
            wl.ctx->network.total().bytes_sent);
}

TEST(Narwhal, AdversaryFastPathIsPlainBroadcast) {
  NarwhalProtocol protocol;
  World w(30, protocol);
  w.ctx->assign_behaviors(0.2, Behavior::kFrontRunner);
  w.ctx->attack_enabled = true;
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const Transaction victim = inject_tx(*w.ctx, sender);
  w.run_ms(3000);
  ASSERT_EQ(w.ctx->adversarial_of.size(), 1u);
  const std::uint64_t attack_id = w.ctx->adversarial_of[victim.id].id;
  // The adversarial tx also reaches (almost) everyone.
  std::size_t reached = 0;
  for (net::NodeId v = 0; v < 30; ++v) {
    if (w.ctx->tracker.delivered(attack_id, v)) ++reached;
  }
  EXPECT_GT(reached, 25u);
}

// The certificate order is first arrival: a certificate takes the next
// position the first time it reaches a node and keeps it, and a repeat is
// not relayed again. A transaction without a certificate sorts after every
// certified one while resident, and nowhere once evicted or never seen.
TEST(Narwhal, CertificateOrderIsFirstArrival) {
  NarwhalProtocol protocol;
  World w(30, protocol);
  w.ctx->mempool_capacity = 2;
  w.start();
  constexpr net::NodeId kNode = 5;
  constexpr net::NodeId kPeer = 7;
  auto& node = static_cast<NarwhalNode&>(w.ctx->node(kNode));
  std::size_t cert_sends = 0;
  w.ctx->network.set_send_tap(
      [&cert_sends](const sim::Message& m, sim::SimTime) {
        if (m.src == kNode && m.type == NarwhalNode::kMsgCert) ++cert_sends;
      });
  const auto tx_of = [](std::uint64_t seq, std::uint64_t fee) {
    Transaction tx;
    tx.sender = kPeer;
    tx.sender_seq = seq;
    tx.id = Transaction::make_id(kPeer, seq);
    tx.fee = fee;
    return tx;
  };
  const auto cert_of = [](const Transaction& tx) {
    auto cert = std::make_shared<CertBody>();
    cert->tx_id = tx.id;
    cert->signers = {1, 2};
    return sim::Message{kPeer, kNode, NarwhalNode::kMsgCert, 100,
                        std::move(cert)};
  };
  // At capacity 2 the third, higher-fee transaction evicts the first.
  const Transaction evicted = tx_of(1, 10);
  const Transaction resident = tx_of(2, 20);
  const Transaction certified = tx_of(3, 30);
  const Transaction hole = tx_of(4, 40);  // certified, never delivered
  const Transaction unseen = tx_of(5, 50);
  for (const Transaction& tx : {evicted, resident, certified}) {
    node.on_message(sim::Message{kPeer, kNode, NarwhalNode::kMsgTx,
                                 tx.payload_bytes, make_tx_body(tx)});
  }
  ASSERT_EQ(node.pool().admission_of(evicted.id),
            mempool::Mempool::Admission::kEvicted);

  node.on_message(cert_of(certified));
  EXPECT_GT(cert_sends, 0u);
  node.on_message(cert_of(hole));
  const std::size_t relayed = cert_sends;
  node.on_message(cert_of(certified));
  EXPECT_EQ(cert_sends, relayed) << "a repeated certificate was relayed";

  EXPECT_EQ(node.ordering_position(certified), 0u);
  EXPECT_EQ(node.ordering_position(hole), 1u);
  // Arrival position 1, behind every certificate.
  EXPECT_EQ(node.ordering_position(resident), (std::size_t{1} << 20) + 1);
  EXPECT_EQ(node.ordering_position(evicted), SIZE_MAX);
  EXPECT_EQ(node.ordering_position(unseen), SIZE_MAX);
}

}  // namespace
}  // namespace hermes::protocols
