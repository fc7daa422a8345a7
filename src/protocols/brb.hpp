// Byzantine Reliable Broadcast (Bracha 1987) as a dissemination protocol —
// the "Reliable Broadcast" column of Table I.
//
// Sender sends the transaction to everyone; every node Echoes to everyone;
// on 2f+1 Echoes (or f+1 Readies) a node sends Ready to everyone; on 2f+1
// Readies it delivers. Three all-to-all phases give the strongest delivery
// guarantees in the table (agreement + totality despite Byzantine nodes)
// at O(n^2) message complexity — which is exactly why it tops the message
// complexity column and bottoms the scalability one.
//
// To keep the n^2 phases affordable the Echo/Ready messages carry the
// transaction id, not the payload; nodes that deliver without having the
// payload pull it from a node that Echoed (payload fetch, like Narwhal's
// repair).
#pragma once

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "protocols/gossip.hpp"

namespace hermes::protocols {

struct BrbVoteBody final : sim::Body<BrbVoteBody> {
  std::uint64_t tx_id = 0;
};

class BrbNode final : public ProtocolNode {
 public:
  BrbNode(ExperimentContext& ctx, net::NodeId id);

  void submit(const Transaction& tx) override;
  void on_message(const sim::Message& msg) override;

  // Bracha-delivered (not merely received) transactions.
  bool brb_delivered(std::uint64_t tx_id) const {
    return delivered_.count(tx_id) > 0;
  }

  static constexpr std::uint32_t kMsgSend = 1;
  static constexpr std::uint32_t kMsgEcho = 2;
  static constexpr std::uint32_t kMsgReady = 3;
  static constexpr std::uint32_t kMsgFetch = 4;

 private:
  struct Instance {
    // Ordered: the payload-pull path walks `echoes` and sends fetches to
    // the first f+1 entries, so membership order reaches the wire.
    std::set<net::NodeId> echoes;
    std::set<net::NodeId> readies;
    bool echoed = false;
    bool readied = false;
    bool delivered = false;
    bool have_payload = false;
  };

  // floor((n-1)/3): the most Byzantine nodes Bracha's quorums tolerate.
  std::size_t f_max() const { return (ctx_.node_count() - 1) / 3; }
  // Sends one shared `body` to every other node.
  void broadcast(std::uint32_t type, std::size_t wire,
                 const std::shared_ptr<const sim::MessageBody>& body);
  void maybe_progress(std::uint64_t tx_id, Instance& inst);

  Rng rng_;
  std::unordered_map<std::uint64_t, Instance> instances_;
  std::unordered_set<std::uint64_t> delivered_;
};

class BrbProtocol final : public Protocol {
 public:
  std::string_view name() const override { return "brb"; }
  std::unique_ptr<ProtocolNode> make_node(ExperimentContext& ctx,
                                          net::NodeId id) override {
    return std::make_unique<BrbNode>(ctx, id);
  }
};

}  // namespace hermes::protocols
