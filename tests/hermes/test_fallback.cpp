// HERMES fallback (Section VII-A) and TRS loss-recovery tests: the paths
// exercised when the fault-density assumption or the network misbehaves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "../protocols/harness.hpp"
#include "hermes/hermes_node.hpp"

namespace hermes::hermes_proto {
namespace {

using protocols::Behavior;
using protocols::honest_coverage;
using protocols::Transaction;
using protocols::inject_tx;
using protocols::testing::World;

// The tx ids a fallback offer or request seen on the wire lists.
const std::vector<std::uint64_t>& listed_ids(const sim::Message& m) {
  return m.type == HermesNode::kMsgFallbackOffer
             ? m.as<FallbackOfferBody>().tx_ids
             : m.as<FallbackRequestBody>().tx_ids;
}

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

TEST(HermesTrsRecovery, SurvivesHeavyMessageLoss) {
  sim::NetworkParams lossy;
  lossy.drop_probability = 0.15;
  HermesProtocol protocol(fast_config());
  World w(40, protocol, 61, lossy);
  w.start();
  const auto tx = w.send_from(3);
  w.run_ms(12000);
  // The TRS retries and Bracha retransmissions must push this through.
  EXPECT_GT(honest_coverage(*w.ctx, tx), 0.95);
}

TEST(HermesTrsRecovery, CompletesWithByzantineCommitteeMember) {
  HermesProtocol protocol(fast_config());
  World w(40, protocol, 62);
  w.ctx->assign_behaviors(0.1, Behavior::kDropper);
  w.start();
  // With f = 1 the committee holds at most one non-honest member; the TRS
  // must still complete from the 2f+1 honest partials.
  std::size_t byz_in_committee = 0;
  for (net::NodeId m : protocol.shared()->committee) {
    if (!w.ctx->is_honest(m)) ++byz_in_committee;
  }
  EXPECT_LE(byz_in_committee, 1u);
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const auto tx = inject_tx(*w.ctx, sender);
  w.run_ms(8000);
  EXPECT_GT(honest_coverage(*w.ctx, tx), 0.95);
}

TEST(HermesFallback, RepairsEntryPointCensorship) {
  // Force every entry point of every overlay to be a dropper: the overlay
  // path is dead on arrival and only the fallback can spread the tx.
  HermesProtocol protocol(fast_config(1, 2));
  World w(40, protocol, 63);
  w.start();  // builds overlays first so we can find the entries
  for (const auto& ov : protocol.shared()->overlays) {
    for (net::NodeId e : ov.entry_points()) {
      w.ctx->behaviors[e] = Behavior::kDropper;
    }
  }
  net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const auto tx = inject_tx(*w.ctx, sender);
  w.run_ms(15000);
  // Fallback offers ride physical links from the sender outward; the tx
  // still reaches a large majority of honest nodes.
  EXPECT_GT(honest_coverage(*w.ctx, tx), 0.9);
}

TEST(HermesFallback, OffersAreSmallAndBounded) {
  HermesProtocol protocol(fast_config());
  World w(40, protocol, 64);
  w.start();
  const auto tx = w.send_from(1);
  w.run_ms(8000);
  (void)tx;
  std::size_t total_offers = 0;
  for (net::NodeId v = 0; v < 40; ++v) {
    total_offers += static_cast<const HermesNode&>(w.ctx->node(v))
                        .fallback_pushes();
  }
  // 3 rounds x fanout 2 per holder, bounded by 6 per node per tx.
  EXPECT_LE(total_offers, 40u * 6u);
  EXPECT_GT(total_offers, 0u);
}

TEST(HermesFallback, OffersScaleWithTicksNotTransactions) {
  // 20 transactions inside 100 ms on 40 nodes. A holder that forwarded its
  // ids within a span W offers them on at most ceil(W / (T/4)) + 2 first-
  // round ticks; the two later rounds ride the same ticks shifted by T, and
  // each tick sends one digest per sampled neighbor. Offers sent one per
  // (tx, round, neighbor) would cost 40 x 20 x 6.
  constexpr std::size_t kNodes = 40;
  constexpr std::size_t kTxs = 20;
  const HermesConfig config = fast_config();
  HermesProtocol protocol(config);
  World w(kNodes, protocol, 69);
  w.start();
  std::vector<std::size_t> offers(kNodes, 0);
  w.ctx->network.set_send_tap([&offers](const sim::Message& m, sim::SimTime) {
    if (m.type == HermesNode::kMsgFallbackOffer) ++offers[m.src];
  });
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < kTxs; ++i) {
    txs.push_back(w.send_from(static_cast<net::NodeId>(2 * i)));
    w.run_ms(5.0);
  }
  w.run_ms(8000);

  const double period = config.fallback_delay_ms / 4.0;
  std::size_t total = 0;
  std::size_t bound = 0;
  for (net::NodeId v = 0; v < kNodes; ++v) {
    // A node forwards a tx (and queues its offers) when it first delivers
    // it; the origin's delivery is restamped to its forward.
    double first = 1e300;
    double last = -1e300;
    for (const Transaction& tx : txs) {
      const double at = w.ctx->tracker.delivery_time(tx.id, v);
      ASSERT_GE(at, 0.0) << "node " << v << " missed tx " << tx.id;
      first = std::min(first, at);
      last = std::max(last, at);
    }
    const auto first_round_ticks =
        static_cast<std::size_t>(std::ceil((last - first) / period)) + 2;
    bound += HermesNode::kFallbackFanout * 3 * first_round_ticks;
    total += offers[v];
  }
  EXPECT_GT(total, 0u);
  EXPECT_LE(total, bound);
  EXPECT_LE(bound, kNodes * kTxs * 6 / 3);
}

TEST(HermesFallback, EveryIdRidesThreeOfferRoundsPerHolder) {
  // Read from the digests on the wire: each holder lists each id in
  // exactly three ticks. The first is the first tick at or after its
  // forward + T, the next two follow T apart.
  const HermesConfig config = fast_config();
  HermesProtocol protocol(config);
  World w(40, protocol, 70);
  w.start();
  // (holder, tx id) -> send times of the digests listing it. The copies of
  // one digest to its sampled neighbors leave at the same time.
  std::map<std::pair<net::NodeId, std::uint64_t>, std::set<double>> rounds;
  w.ctx->network.set_send_tap(
      [&rounds](const sim::Message& m, sim::SimTime at) {
        if (m.type != HermesNode::kMsgFallbackOffer) return;
        for (std::uint64_t id : listed_ids(m)) {
          rounds[{m.src, id}].insert(at);
        }
      });
  std::vector<Transaction> txs;
  for (net::NodeId sender : {1, 5, 9, 13, 17, 21, 25, 29}) {
    txs.push_back(w.send_from(sender));
    w.run_ms(37.0);
  }
  w.run_ms(8000);

  const double t = config.fallback_delay_ms;
  const double period = t / 4.0;
  constexpr double kEps = 1e-6;
  for (net::NodeId v = 0; v < 40; ++v) {
    for (const Transaction& tx : txs) {
      const auto it = rounds.find({v, tx.id});
      ASSERT_NE(it, rounds.end()) << "node " << v << " never offered " << tx.id;
      const std::vector<double> at(it->second.begin(), it->second.end());
      ASSERT_EQ(at.size(), 3u) << "node " << v << " tx " << tx.id;
      const double forwarded = w.ctx->tracker.delivery_time(tx.id, v);
      EXPECT_GE(at[0], forwarded + t - kEps);
      EXPECT_LT(at[0], forwarded + t + period + kEps);
      EXPECT_NEAR(at[1] - at[0], t, kEps);
      EXPECT_NEAR(at[2] - at[1], t, kEps);
    }
  }
}

TEST(HermesFallback, DigestPullListsOnlyTheMissingIds) {
  // Entry-point censorship: the overlays are dead on arrival, so each tx
  // spreads only through the fallback.
  HermesProtocol protocol(fast_config(1, 2));
  World w(40, protocol, 63);
  w.start();
  for (const auto& ov : protocol.shared()->overlays) {
    for (net::NodeId e : ov.entry_points()) {
      w.ctx->behaviors[e] = Behavior::kDropper;
    }
  }
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const auto held = inject_tx(*w.ctx, sender);
  w.run_ms(15000);
  // The sender's tree sends of the next transaction.
  std::vector<sim::Message> forwards;
  w.ctx->network.set_send_tap([&](const sim::Message& m, sim::SimTime) {
    if (m.type == HermesNode::kMsgData && m.src == sender) {
      forwards.push_back(m);
    }
  });
  const auto missing = inject_tx(*w.ctx, sender);
  // The TRS round is over, but the sender's first offers leave only T after
  // its forward, and reach only its physical neighbors.
  w.run_ms(1000);

  const auto& nbrs = w.ctx->topology.graph.neighbors(sender);
  const auto is_neighbor = [&nbrs](net::NodeId v) {
    return std::any_of(nbrs.begin(), nbrs.end(),
                       [v](const auto& e) { return e.to == v; });
  };
  net::NodeId receiver = sender;
  for (net::NodeId v = 0; v < 40 && receiver == sender; ++v) {
    const auto& pool = w.ctx->node(v).pool();
    if (v != sender && w.ctx->is_honest(v) && !is_neighbor(v) &&
        pool.seen(held.id) && !pool.seen(missing.id)) {
      receiver = v;
    }
  }
  ASSERT_NE(receiver, sender);

  // Requests the receiver sends the sender, and payloads coming back. The
  // sender offers nothing to a non-neighbor, so only the digest below can
  // draw a request from the receiver to it.
  std::vector<std::vector<std::uint64_t>> requests;
  std::vector<sim::Message> payloads;
  w.ctx->network.set_send_tap([&](const sim::Message& m, sim::SimTime) {
    if (m.type == HermesNode::kMsgFallbackRequest && m.src == receiver &&
        m.dst == sender) {
      requests.push_back(listed_ids(m));
    }
    if (m.type == HermesNode::kMsgFallback && m.src == sender &&
        m.dst == receiver) {
      payloads.push_back(m);
    }
  });
  auto digest = std::make_shared<FallbackOfferBody>();
  digest->tx_ids = {held.id, missing.id};
  {
    sim::Engine::ShardScope scope(w.ctx->engine, w.ctx->shard_of(sender));
    w.ctx->network.send(sim::Message{sender, receiver,
                                     HermesNode::kMsgFallbackOffer, 24,
                                     std::move(digest)});
  }
  w.run_ms(2000);

  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0], std::vector<std::uint64_t>{missing.id});
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_TRUE(w.ctx->tracker.delivered(missing.id, receiver));
  // The reply is the very body the sender forwarded into the overlay, not
  // a rebuilt copy of the tuple.
  const auto* reply = payloads[0].try_as<DataBody>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->tx.id, missing.id);
  ASSERT_FALSE(forwards.empty());
  for (const sim::Message& m : forwards) EXPECT_EQ(m.body, payloads[0].body);
}

TEST(HermesFallback, RelayAnswersAPullWithTheBodyItHolds) {
  // A relay's held record is its pool entry: the body it received, which
  // the entry reads the transaction from, and which a pull answer sends.
  HermesProtocol protocol(fast_config());
  World w(40, protocol, 67);
  w.start();
  const net::NodeId origin = 7;
  std::shared_ptr<const sim::MessageBody> forwarded;
  w.ctx->network.set_send_tap([&](const sim::Message& m, sim::SimTime) {
    if (m.type == HermesNode::kMsgData && m.src == origin && !forwarded) {
      forwarded = m.body;
    }
  });
  const auto tx = w.send_from(origin);
  w.run_ms(3000);
  ASSERT_NE(forwarded, nullptr);
  ASSERT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);

  // A relay that is not the origin, asked by one of its neighbours.
  const net::NodeId relay = 23;
  const net::NodeId asker = w.ctx->topology.graph.neighbors(relay)[0].to;
  ASSERT_NE(relay, origin);
  const mempool::Mempool::Entry* entry =
      w.ctx->node(relay).pool().find(tx.id);
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->bound());
  const auto* held = static_cast<const DataBody*>(entry->record().get());
  EXPECT_EQ(&entry->tx(), &held->tx);
  EXPECT_EQ(w.ctx->node(relay).pool().get(tx.id), &held->tx);

  std::vector<sim::Message> answers;
  w.ctx->network.set_send_tap([&](const sim::Message& m, sim::SimTime) {
    if (m.type == HermesNode::kMsgFallback && m.src == relay) {
      answers.push_back(m);
    }
  });
  auto req = std::make_shared<FallbackRequestBody>();
  req->tx_ids.push_back(tx.id);
  {
    sim::Engine::ShardScope scope(w.ctx->engine, w.ctx->shard_of(asker));
    w.ctx->network.send(sim::Message{asker, relay,
                                     HermesNode::kMsgFallbackRequest, 16,
                                     std::move(req)});
  }
  w.run_ms(1000);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].dst, asker);
  EXPECT_EQ(answers[0].body.get(), held);
  // The one body of the transaction: the origin's, relayed hop by hop.
  EXPECT_EQ(answers[0].body, forwarded);
}

TEST(HermesFallback, PullServesCertificateAndPayload) {
  // Nodes that learn a tx only via fallback must still end up with a
  // serving-capable copy (certificate included), so repair is epidemic.
  sim::NetworkParams lossy;
  lossy.drop_probability = 0.25;
  HermesProtocol protocol(fast_config(1, 2));
  World w(30, protocol, 65, lossy);
  w.start();
  const auto tx = w.send_from(2);
  w.run_ms(20000);
  EXPECT_GT(honest_coverage(*w.ctx, tx), 0.9);
}

TEST(HermesFallback, DisabledMeansNoOffers) {
  HermesConfig config = fast_config();
  config.enable_fallback = false;
  HermesProtocol protocol(config);
  World w(30, protocol, 66);
  w.start();
  const auto tx = w.send_from(1);
  w.run_ms(5000);
  (void)tx;
  for (net::NodeId v = 0; v < 30; ++v) {
    EXPECT_EQ(
        static_cast<const HermesNode&>(w.ctx->node(v)).fallback_pushes(), 0u);
  }
}

TEST(HermesInjection, DisjointPathModeStillDelivers) {
  HermesConfig config = fast_config();
  config.direct_entry_injection = false;  // hop-by-hop disjoint paths
  HermesProtocol protocol(config);
  World w(40, protocol, 67);
  w.start();
  const auto tx = w.send_from(9);
  w.run_ms(8000);
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
}

TEST(HermesInjection, DisjointPathsSurviveByzantineRelays) {
  HermesConfig config = fast_config();
  config.direct_entry_injection = false;
  HermesProtocol protocol(config);
  World w(60, protocol, 68);
  w.ctx->assign_behaviors(0.2, Behavior::kDropper);
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const auto tx = inject_tx(*w.ctx, sender);
  w.run_ms(10000);
  EXPECT_GT(honest_coverage(*w.ctx, tx), 0.9);
}

}  // namespace
}  // namespace hermes::hermes_proto
