// The send rule every baseline keeps: a broadcast builds its message body
// once and all of its copies share it, and a relay sends on the body that
// was sent to it. A node keeps the body a transaction reached it in (the
// origin, the body it built) as its mempool record, and pull and fetch
// answers send that body. A send tap records every message of a run with
// lossy links, front-runners and several transactions, so retransmits,
// repairs, reconciliation and adversarial blasts are checked too.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "harness.hpp"
#include "protocols/brb.hpp"
#include "protocols/l0.hpp"
#include "protocols/mercury.hpp"
#include "protocols/narwhal.hpp"
#include "protocols/simple_tree.hpp"

namespace hermes::protocols {
namespace {

using testing::World;

struct Case {
  const char* name;
  std::function<std::unique_ptr<Protocol>()> make;
  // Message types a node answers with a body of its own: fetches, pull
  // requests and reconciliation digests.
  std::set<std::uint32_t> requests;
  // Whether the protocol relays transaction bodies (BRB does not: only
  // the origin and fetch answers send the payload).
  bool relays;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

struct Sent {
  sim::SimTime at;
  // Holds the body, so no later body can reuse its address.
  sim::Message msg;
};

// The transaction a body is about; commitments resolve by hash.
std::optional<std::uint64_t> subject(
    const sim::Message& m, const std::map<crypto::Digest, std::uint64_t>& ids) {
  if (const auto* b = m.try_as<TxBody>()) return b->tx.id;
  if (const auto* b = m.try_as<CertBody>()) return b->tx_id;
  if (const auto* b = m.try_as<FetchBody>()) return b->tx_id;
  if (const auto* b = m.try_as<AckBody>()) return b->tx_id;
  if (const auto* b = m.try_as<BrbVoteBody>()) return b->tx_id;
  if (const auto* b = m.try_as<CommitBody>()) {
    const auto it = ids.find(b->commitment.tx_hash);
    if (it != ids.end()) return it->second;
  }
  return std::nullopt;
}

// Bodies a node passes on from hop to hop.
bool relayed_body(const sim::Message& m) {
  return m.try_as<TxBody>() != nullptr || m.try_as<CertBody>() != nullptr ||
         m.try_as<CommitBody>() != nullptr;
}

// What the rule finds in one run's sends, in send order.
struct Tally {
  std::size_t copies = 0;   // sends that repeat an earlier one's broadcast
  std::size_t relays = 0;   // relayed bodies a node had been sent
  std::size_t split = 0;    // copies of one broadcast with bodies of their own
  std::size_t rebuilt = 0;  // relays with a body the relay built
};

Tally tally(const std::vector<Sent>& sends,
            const std::set<std::uint32_t>& requests, std::size_t nodes) {
  std::map<crypto::Digest, std::uint64_t> ids;
  for (const Sent& s : sends) {
    if (const auto* b = s.msg.try_as<TxBody>()) ids[b->tx.hash()] = b->tx.id;
  }
  // One broadcast: one sender, one instant, one type, one transaction.
  using Key = std::tuple<net::NodeId, sim::SimTime, std::uint32_t,
                         std::uint64_t>;
  std::map<Key, const sim::MessageBody*> broadcast_body;
  std::vector<std::set<const sim::MessageBody*>> received(nodes);
  std::vector<std::set<net::NodeId>> asked(nodes);
  Tally t;
  for (const Sent& s : sends) {
    const sim::Message& m = s.msg;
    const auto about = subject(m, ids);
    const auto [it, fresh] = broadcast_body.try_emplace(
        Key{m.src, s.at, m.type, about.value_or(0)}, m.body.get());
    if (!fresh) {
      ++t.copies;
      if (it->second != m.body.get()) ++t.split;
    }
    if (relayed_body(m)) {
      EXPECT_TRUE(about.has_value()) << "type " << m.type;
      const bool origin = about && m.src == (*about >> 32);
      const bool answer = asked[m.src].count(m.dst) > 0;
      if (received[m.src].count(m.body.get()) > 0) {
        ++t.relays;
      } else if (!origin && !answer) {
        ++t.rebuilt;
      }
    }
    if (requests.count(m.type) > 0) asked[m.dst].insert(m.src);
    received[m.dst].insert(m.body.get());
  }
  return t;
}

// The transaction bodies each node sent and was sent, per transaction.
struct HeldTally {
  std::size_t answers = 0;  // body sends to a node that had asked
  std::size_t mixed = 0;    // sends of one transaction by one node in a
                            // second body
  std::size_t unheld = 0;   // sends by a non-origin in a body it was never
                            // sent
};

HeldTally held_tally(const std::vector<Sent>& sends,
                     const std::set<std::uint32_t>& requests,
                     std::size_t nodes) {
  using NodeTx = std::pair<net::NodeId, std::uint64_t>;
  std::map<NodeTx, const sim::MessageBody*> sent_in;
  std::map<NodeTx, std::set<const sim::MessageBody*>> sent_to;
  std::vector<std::set<net::NodeId>> asked(nodes);
  HeldTally t;
  for (const Sent& s : sends) {
    const sim::Message& m = s.msg;
    if (const auto* b = m.try_as<TxBody>()) {
      const std::uint64_t tx = b->tx.id;
      if (asked[m.src].count(m.dst) > 0) ++t.answers;
      const auto [it, first] = sent_in.try_emplace({m.src, tx}, m.body.get());
      if (!first && it->second != m.body.get()) ++t.mixed;
      if (m.src != b->tx.sender &&
          sent_to[{m.src, tx}].count(m.body.get()) == 0) {
        ++t.unheld;
      }
      sent_to[{m.dst, tx}].insert(m.body.get());
    }
    if (requests.count(m.type) > 0) asked[m.dst].insert(m.src);
  }
  return t;
}

// One run with lossy links, front-runners and six transactions; returns
// every send after start-up.
std::vector<Sent> run_and_tap(World& w) {
  w.ctx->assign_behaviors(0.15, Behavior::kFrontRunner);
  w.ctx->attack_enabled = true;
  w.start();
  std::vector<Sent> sends;
  w.ctx->network.set_send_tap([&sends](const sim::Message& m, sim::SimTime at) {
    sends.push_back(Sent{at, m});
  });
  for (int i = 0; i < 6; ++i) {
    w.send_from(w.ctx->random_honest(w.ctx->rng));
    w.run_ms(150);
  }
  w.run_ms(3000);
  w.ctx->network.set_send_tap(nullptr);
  return sends;
}

sim::NetworkParams lossy() {
  sim::NetworkParams np;
  np.drop_probability = 0.05;
  return np;
}

class SharedBodies : public ::testing::TestWithParam<Case> {};

TEST_P(SharedBodies, BroadcastsShareOneBodyAndRelaysForwardIt) {
  const Case& c = GetParam();
  auto protocol = c.make();
  World w(30, *protocol, 4242, lossy());
  const std::vector<Sent> sends = run_and_tap(w);

  const Tally t = tally(sends, c.requests, w.ctx->node_count());
  EXPECT_GT(t.copies, 0u);
  if (c.relays) {
    EXPECT_GT(t.relays, 0u);
  }
  EXPECT_EQ(t.split, 0u) << "copies of one broadcast with bodies of their own";
  EXPECT_EQ(t.rebuilt, 0u) << "relays that rebuilt the body they were sent";
}

// Per node and transaction, every TxBody the node was sent, or sent as
// the transaction's origin.
std::map<std::pair<net::NodeId, std::uint64_t>,
         std::set<const sim::MessageBody*>>
reached_bodies(const std::vector<Sent>& sends) {
  std::map<std::pair<net::NodeId, std::uint64_t>,
           std::set<const sim::MessageBody*>>
      bodies;
  for (const Sent& s : sends) {
    if (const auto* b = s.msg.try_as<TxBody>()) {
      bodies[{s.msg.dst, b->tx.id}].insert(s.msg.body.get());
      if (s.msg.src == b->tx.sender) {
        bodies[{s.msg.src, b->tx.id}].insert(s.msg.body.get());
      }
    }
  }
  return bodies;
}

TEST_P(SharedBodies, PoolKeepsTheBodyATransactionArrivedIn) {
  const Case& c = GetParam();
  auto protocol = c.make();
  World w(30, *protocol, 4242, lossy());
  auto bodies = reached_bodies(run_and_tap(w));
  std::size_t entries = 0;
  for (net::NodeId v = 0; v < w.ctx->node_count(); ++v) {
    for (const auto& entry : w.ctx->node(v).pool().arrival_log()) {
      ++entries;
      // The entry reads the transaction inside its record, a TxBody that
      // reached this node: the same object, no copy.
      const auto* record = static_cast<const TxBody*>(entry.record().get());
      EXPECT_EQ(&entry.tx(), &record->tx) << entry.id() << " at " << v;
      const auto& reached = bodies[{v, entry.id()}];
      EXPECT_EQ(reached.count(record), 1u) << entry.id() << " at " << v;
    }
  }
  EXPECT_GT(entries, w.ctx->node_count());
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, SharedBodies,
    ::testing::Values(
        Case{"gossip", [] { return std::make_unique<GossipProtocol>(); }, {},
             true},
        Case{"l0", [] { return std::make_unique<L0Protocol>(); },
             {L0Node::kMsgDigest, L0Node::kMsgTxRequest}, true},
        Case{"narwhal", [] { return std::make_unique<NarwhalProtocol>(); },
             {NarwhalNode::kMsgFetch}, true},
        Case{"brb", [] { return std::make_unique<BrbProtocol>(); },
             {BrbNode::kMsgFetch}, false},
        Case{"mercury", [] { return std::make_unique<MercuryProtocol>(); }, {},
             true},
        Case{"simpletree",
             [] { return std::make_unique<SimpleTreeProtocol>(); }, {}, true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

// The baselines that answer pulls or fetches: every transaction body a
// node sends, answers included, is the one body it holds for it.
class HeldBodies : public ::testing::TestWithParam<Case> {};

TEST_P(HeldBodies, PullAndFetchAnswersSendTheBodyTheNodeHolds) {
  const Case& c = GetParam();
  auto protocol = c.make();
  World w(30, *protocol, 4242, lossy());
  const std::vector<Sent> sends = run_and_tap(w);

  const HeldTally t = held_tally(sends, c.requests, w.ctx->node_count());
  EXPECT_GT(t.answers, 0u);
  EXPECT_EQ(t.mixed, 0u) << "one node sent one transaction in two bodies";
  EXPECT_EQ(t.unheld, 0u) << "answers in a body the node was never sent";
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, HeldBodies,
    ::testing::Values(
        Case{"l0", [] { return std::make_unique<L0Protocol>(); },
             {L0Node::kMsgDigest, L0Node::kMsgTxRequest}, true},
        Case{"narwhal", [] { return std::make_unique<NarwhalProtocol>(); },
             {NarwhalNode::kMsgFetch}, true},
        Case{"brb", [] { return std::make_unique<BrbProtocol>(); },
             {BrbNode::kMsgFetch}, false}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace hermes::protocols
