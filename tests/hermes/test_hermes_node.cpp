#include "hermes/hermes_node.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>
#include <vector>

#include "protocols/gossip.hpp"

#include "../protocols/harness.hpp"

namespace hermes::hermes_proto {
namespace {

using protocols::AttackOutcome;
using protocols::Behavior;
using protocols::front_run_outcome;
using protocols::honest_coverage;
using protocols::inject_tx;
using protocols::testing::World;

HermesConfig fast_config(std::size_t f = 1, std::size_t k = 4) {
  HermesConfig config;
  config.f = f;
  config.k = k;
  config.builder.annealing.initial_temperature = 5.0;
  config.builder.annealing.min_temperature = 1.0;
  config.builder.annealing.cooling_rate = 0.8;
  config.builder.annealing.moves_per_temperature = 4;
  return config;
}

TEST(HermesNode, DeliversToAllHonestNodes) {
  HermesProtocol protocol(fast_config());
  World w(40, protocol);
  w.start();
  const auto tx = w.send_from(7);
  w.run_ms(5000);
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
}

// Whether `m` is a tree send: kMsgData past its injection route.
bool tree_send(const sim::Message& m) {
  const auto* d = m.try_as<DataBody>();
  return m.type == HermesNode::kMsgData && d != nullptr && d->route.empty();
}

TEST(HermesNode, EveryHopForwardsTheOriginsBody) {
  // One immutable body per transaction: the origin builds it, and every
  // node forwards the body it received instead of rebuilding the tuple.
  HermesProtocol protocol(fast_config());
  World w(40, protocol);
  w.start();
  const net::NodeId origin = 7;
  std::shared_ptr<const sim::MessageBody> injected;
  std::size_t sends = 0;
  std::size_t foreign = 0;
  w.ctx->network.set_send_tap([&](const sim::Message& m, sim::SimTime) {
    if (!tree_send(m)) return;
    if (!injected && m.src == origin) injected = m.body;
    ++sends;
    if (m.body != injected) ++foreign;
  });
  const auto tx = w.send_from(origin);
  w.run_ms(5000);
  ASSERT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
  ASSERT_NE(injected, nullptr);
  EXPECT_GT(sends, 40u);
  EXPECT_EQ(foreign, 0u);
}

TEST(HermesNode, ForwardsEachTransactionOncePerSuccessor) {
  // The forwarded bit lives in the pool entry: a node that receives a
  // transaction from all f+1 predecessors, and again through fallback
  // pulls, forwards it to each successor once.
  HermesProtocol protocol(fast_config());
  World w(40, protocol);
  w.start();
  std::map<std::tuple<net::NodeId, net::NodeId, std::uint64_t>, int> sent;
  std::size_t pulled = 0;
  w.ctx->network.set_send_tap([&](const sim::Message& m, sim::SimTime) {
    if (m.type == HermesNode::kMsgFallback) ++pulled;
    if (!tree_send(m)) return;
    ++sent[{m.src, m.dst, m.as<DataBody>().tx.id}];
  });
  const auto tx = w.send_from(7);
  w.run_ms(3000);
  ASSERT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
  // Every holder answers a pull from each of its neighbours: copies reach
  // nodes that have forwarded already.
  for (net::NodeId v = 0; v < 40; ++v) {
    for (const auto& e : w.ctx->topology.graph.neighbors(v)) {
      auto req = std::make_shared<FallbackRequestBody>();
      req->tx_ids.push_back(tx.id);
      sim::Engine::ShardScope scope(w.ctx->engine, w.ctx->shard_of(e.to));
      w.ctx->network.send(sim::Message{e.to, v,
                                       HermesNode::kMsgFallbackRequest, 24,
                                       std::move(req)});
    }
  }
  w.run_ms(3000);
  EXPECT_GT(pulled, 40u);
  ASSERT_FALSE(sent.empty());
  for (const auto& [hop, copies] : sent) {
    EXPECT_EQ(copies, 1) << std::get<0>(hop) << " -> " << std::get<1>(hop);
  }
  for (net::NodeId v = 0; v < 40; ++v) {
    const auto* entry = w.ctx->node(v).pool().find(tx.id);
    ASSERT_NE(entry, nullptr) << v;
    EXPECT_TRUE(entry->bound()) << v;
    EXPECT_TRUE(entry->forwarded()) << v;
  }
}

TEST(HermesNode, MultipleTransactionsUseDifferentOverlays) {
  HermesProtocol protocol(fast_config(1, 4));
  World w(40, protocol);
  w.start();
  // Inject several txs; each gets a seed-selected overlay. With 12 txs and
  // 4 overlays the chance all land on one overlay is negligible, which we
  // observe indirectly: delivery latencies differ across txs from the same
  // sender (different trees, different paths).
  std::vector<protocols::Transaction> txs;
  for (int i = 0; i < 12; ++i) {
    txs.push_back(w.send_from(7));
    w.run_ms(500);
  }
  w.run_ms(5000);
  std::set<long> latency_signatures;
  for (const auto& tx : txs) {
    EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
    const auto lats = w.ctx->tracker.latencies(tx.id);
    latency_signatures.insert(
        std::lround(hermes::mean_of(lats) * 1000.0));
  }
  EXPECT_GT(latency_signatures.size(), 1u);
}

TEST(HermesNode, CommitteeMemberCanSend) {
  HermesProtocol protocol(fast_config());
  World w(30, protocol);
  w.start();
  const net::NodeId member = protocol.shared()->committee.front();
  const auto tx = inject_tx(*w.ctx, member);
  w.run_ms(5000);
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
}

TEST(HermesNode, ToleratesDroppersViaRedundancyAndFallback) {
  HermesProtocol protocol(fast_config(1, 4));
  World w(60, protocol, 17);
  w.ctx->assign_behaviors(0.25, Behavior::kDropper);
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const auto tx = inject_tx(*w.ctx, sender);
  w.run_ms(8000);
  EXPECT_GT(honest_coverage(*w.ctx, tx), 0.97);
}

TEST(HermesNode, FallbackDisabledLowersRobustness) {
  HermesConfig with = fast_config(1, 4);
  HermesConfig without = fast_config(1, 4);
  without.enable_fallback = false;
  HermesProtocol p_with(with), p_without(without);
  World w1(60, p_with, 19), w2(60, p_without, 19);
  w1.ctx->assign_behaviors(0.33, Behavior::kDropper);
  w2.ctx->assign_behaviors(0.33, Behavior::kDropper);
  w1.start();
  w2.start();
  double cov_with = 0.0, cov_without = 0.0;
  for (int i = 0; i < 4; ++i) {
    const auto t1 = inject_tx(*w1.ctx, w1.ctx->random_honest(w1.ctx->rng));
    const auto t2 = inject_tx(*w2.ctx, w2.ctx->random_honest(w2.ctx->rng));
    w1.run_ms(4000);
    w2.run_ms(4000);
    cov_with += honest_coverage(*w1.ctx, t1);
    cov_without += honest_coverage(*w2.ctx, t2);
  }
  EXPECT_GE(cov_with, cov_without);
}

TEST(HermesNode, DirectBlastWithoutCertificateIsFlagged) {
  HermesConfig config = fast_config();
  config.adversary_blind_blast = true;  // the naive attacker variant
  HermesProtocol protocol(config);
  World w(40, protocol);
  w.ctx->assign_behaviors(0.2, Behavior::kFrontRunner);
  w.ctx->attack_enabled = true;
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const auto victim = inject_tx(*w.ctx, sender);
  w.run_ms(6000);
  ASSERT_EQ(w.ctx->adversarial_of.count(victim.id), 1u);
  // At least one honest node recorded a violation from the blast.
  std::size_t total_violations = 0;
  for (net::NodeId v = 0; v < 40; ++v) {
    if (!w.ctx->is_honest(v)) continue;
    total_violations += static_cast<const HermesNode&>(w.ctx->node(v))
                            .audit()
                            .violations()
                            .size();
  }
  EXPECT_GT(total_violations, 0u);
}

TEST(HermesNode, AdversarialTxStillDeliveredThroughProtocol) {
  // The adversary's tx is valid (it got a TRS) — it must flow, just not
  // faster than the protocol allows.
  HermesProtocol protocol(fast_config());
  World w(40, protocol);
  w.ctx->assign_behaviors(0.2, Behavior::kFrontRunner);
  w.ctx->attack_enabled = true;
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const auto victim = inject_tx(*w.ctx, sender);
  w.run_ms(8000);
  ASSERT_EQ(w.ctx->adversarial_of.count(victim.id), 1u);
  const std::uint64_t attack_id = w.ctx->adversarial_of[victim.id].id;
  std::size_t reached = 0;
  for (net::NodeId v = 0; v < 40; ++v) {
    if (w.ctx->tracker.delivered(attack_id, v)) ++reached;
  }
  EXPECT_GT(reached, 30u);
}

TEST(HermesNode, SequenceGapBlocksTrs) {
  // A sender that skips a sequence number never completes the TRS for the
  // out-of-order message: the committee parks the request (Section VI-C).
  // The 3 s gap below ends before the origin gives up (after
  // kTrsRetryMaxAttempts requests 400 ms apart, 4.8 s), so the round is
  // still pending when the gap finally closes.
  HermesProtocol protocol(fast_config());
  World w(30, protocol);
  w.start();
  auto& sender = w.ctx->node(5);
  // Skip seq 1: submit seq 2 directly.
  protocols::Transaction tx;
  tx.sender = 5;
  sender.allocate_seq();  // burn seq 1 without sending it
  tx.sender_seq = sender.allocate_seq();
  ASSERT_EQ(tx.sender_seq, 2u);
  tx.id = mempool::Transaction::make_id(5, tx.sender_seq);
  tx.created_at = w.ctx->engine.now();
  w.ctx->tracker.on_created(tx.id, tx.created_at);
  sender.submit(tx);
  w.run_ms(3000);
  // Nobody (except the sender itself) received it.
  EXPECT_LT(honest_coverage(*w.ctx, tx), 0.05);

  // Now send the missing seq 1: committee replays the parked request and
  // both transactions flow.
  protocols::Transaction first;
  first.sender = 5;
  first.sender_seq = 1;
  first.id = mempool::Transaction::make_id(5, 1);
  first.created_at = w.ctx->engine.now();
  w.ctx->tracker.on_created(first.id, first.created_at);
  sender.submit(first);
  w.run_ms(6000);
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, first), 1.0);
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
}

TEST(HermesNode, FrontRunningRarerThanInGossip) {
  // The headline claim (Figure 5a), at test scale: run several victims
  // through HERMES and gossip with the same adversary fraction; HERMES
  // should win (strictly fewer successful front-runs).
  std::size_t hermes_wins = 0, gossip_wins = 0;
  const int kRuns = 6;
  for (int run = 0; run < kRuns; ++run) {
    const std::uint64_t seed = 100 + run;
    {
      HermesProtocol protocol(fast_config());
      World w(40, protocol, seed);
      w.ctx->assign_behaviors(0.3, Behavior::kFrontRunner);
      w.ctx->attack_enabled = true;
      w.start();
      const auto victim = inject_tx(*w.ctx, w.ctx->random_honest(w.ctx->rng));
      w.run_ms(8000);
      Rng judge(seed);
      if (front_run_outcome(*w.ctx, victim, judge) == AttackOutcome::kSucceeded) {
        ++hermes_wins;
      }
    }
    {
      protocols::GossipProtocol protocol;
      World w(40, protocol, seed);
      w.ctx->assign_behaviors(0.3, Behavior::kFrontRunner);
      w.ctx->attack_enabled = true;
      w.start();
      const auto victim = inject_tx(*w.ctx, w.ctx->random_honest(w.ctx->rng));
      w.run_ms(8000);
      Rng judge(seed);
      if (front_run_outcome(*w.ctx, victim, judge) == AttackOutcome::kSucceeded) {
        ++gossip_wins;
      }
    }
  }
  EXPECT_LE(hermes_wins, gossip_wins);
}

TEST(HermesNode, EndToEndWithRealThresholdRsa) {
  // The full protocol over genuine Shoup threshold RSA: committee members
  // produce real partial signatures with Fiat-Shamir proofs, the sender
  // combines them into an RSA-FDH certificate, and every receiver verifies
  // it. One compact scenario covers the path; its 256-bit safe-prime keygen
  // takes a few milliseconds.
  HermesConfig config = fast_config(1, 3);
  config.use_real_threshold_crypto = true;
  config.real_threshold_rsa_bits = 256;
  HermesProtocol protocol(config);
  World w(25, protocol, 4242);
  w.start();
  const auto tx = w.send_from(4);
  w.run_ms(6000);
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
  // The certificate on the wire is a real RSA signature over the TRS tuple.
  const auto shared = protocol.shared();
  const auto* scheme =
      dynamic_cast<const crypto::RsaThresholdScheme*>(shared->scheme.get());
  ASSERT_NE(scheme, nullptr);
  EXPECT_GE(scheme->public_params().rsa.n.bit_length(), 255u);
}

TEST(WorkersDeterminism, RealThresholdRsaIdenticalAcrossWorkerCounts) {
  // EndToEndWithRealThresholdRsa's scenario on worker threads: every lane's
  // nodes sign, verify and combine on the one ThresholdRsaContext they
  // share, without a lock, so the send trace must not depend on the worker
  // count.
  using Send = std::tuple<sim::SimTime, net::NodeId, net::NodeId,
                          std::uint32_t, std::size_t>;
  const auto trace = [](std::size_t workers) {
    HermesConfig config = fast_config(1, 3);
    config.use_real_threshold_crypto = true;
    config.real_threshold_rsa_bits = 256;
    HermesProtocol protocol(config);
    sim::NetworkParams np;
    np.workers = workers;
    World w(25, protocol, 4242, np);
    std::vector<Send> sends;
    w.ctx->network.set_send_tap([&](const sim::Message& m, sim::SimTime at) {
      sends.emplace_back(at, m.src, m.dst, m.type, m.wire_bytes);
    });
    w.start();
    const auto tx = w.send_from(4);
    w.run_ms(6000);
    EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0) << workers;
    return sends;
  };
  const std::vector<Send> base = trace(1);
  ASSERT_FALSE(base.empty());
  for (const std::size_t workers : {2, 4}) {
    EXPECT_EQ(trace(workers), base) << "diverged at workers=" << workers;
  }
}

TEST(PickCommittee, CapsByzantineMembers) {
  HermesProtocol protocol(fast_config());
  World w(40, protocol);
  w.ctx->assign_behaviors(0.33, Behavior::kDropper);
  Rng rng(5);
  const auto committee = pick_committee(*w.ctx, 2, rng);
  EXPECT_EQ(committee.size(), 7u);
  std::size_t byz = 0;
  for (net::NodeId m : committee) {
    if (!w.ctx->is_honest(m)) ++byz;
  }
  EXPECT_LE(byz, 2u);
}

TEST(HermesShared, CommitteeIndexLookup) {
  HermesShared shared;
  shared.committee = {10, 20, 30, 40};
  EXPECT_TRUE(shared.is_committee_member(20));
  EXPECT_FALSE(shared.is_committee_member(25));
  EXPECT_EQ(shared.committee_index(10), 1u);
  EXPECT_EQ(shared.committee_index(40), 4u);
  EXPECT_EQ(shared.committee_index(99), 0u);
}

}  // namespace
}  // namespace hermes::hermes_proto
