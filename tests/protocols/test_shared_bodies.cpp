// The send rule every baseline keeps: a broadcast builds its message body
// once and all of its copies share it, and a relay sends on the body that
// was sent to it. Only pull and fetch answers build a new body, from the
// mempool. A send tap records every message of a run with lossy links,
// front-runners and several transactions, so retransmits, repairs,
// reconciliation and adversarial blasts are checked too.
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

class SharedBodies : public ::testing::TestWithParam<Case> {};

TEST_P(SharedBodies, BroadcastsShareOneBodyAndRelaysForwardIt) {
  const Case& c = GetParam();
  auto protocol = c.make();
  sim::NetworkParams np;
  np.drop_probability = 0.05;
  World w(30, *protocol, 4242, np);
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

  const Tally t = tally(sends, c.requests, w.ctx->node_count());
  EXPECT_GT(t.copies, 0u);
  if (c.relays) {
    EXPECT_GT(t.relays, 0u);
  }
  EXPECT_EQ(t.split, 0u) << "copies of one broadcast with bodies of their own";
  EXPECT_EQ(t.rebuilt, 0u) << "relays that rebuilt the body they were sent";
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

}  // namespace
}  // namespace hermes::protocols
