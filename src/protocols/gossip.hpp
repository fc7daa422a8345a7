// Plain push gossip — the "traditional broadcast" baseline of Table I and
// the dissemination substrate LØ builds on. Nodes forward the first copy of
// a transaction to a random subset of their physical neighbors.
#pragma once

#include "protocols/base.hpp"

namespace hermes::protocols {

struct GossipParams {
  std::size_t fanout = 8;
};

class GossipNode : public ProtocolNode {
 public:
  GossipNode(ExperimentContext& ctx, net::NodeId id, GossipParams params);

  void submit(const Transaction& tx) override;
  void fast_submit(const Transaction& tx) override;
  void on_message(const sim::Message& msg) override;

  static constexpr std::uint32_t kMsgTx = 1;

  // Extra random far peers an adversary blasts to in fast_submit (gossip
  // lets nodes open links beyond the overlay, which is exactly the degree
  // of freedom front-runners exploit — Section I).
  static constexpr std::size_t kAdversaryExtraLinks = 32;

 protected:
  // LØ relays its transactions over this gossip with its own rng fork.
  GossipNode(ExperimentContext& ctx, net::NodeId id, GossipParams params,
             Rng rng);

  // Sends the transaction `body` to `count` random neighbors, excluding
  // `except`. Once `count` reaches the degree, every neighbor gets it in
  // adjacency order with no draw.
  void forward_to_neighbors(const std::shared_ptr<const sim::MessageBody>& body,
                            std::size_t wire, std::size_t count,
                            net::NodeId except);
  // Adversarial fast path: `body` to every neighbor and to `extra_links`
  // random far nodes over ad-hoc links.
  void blast(const std::shared_ptr<const TxBody>& body,
             std::size_t extra_links);

  GossipParams params_;
  Rng rng_;
};

class GossipProtocol final : public Protocol {
 public:
  explicit GossipProtocol(GossipParams params = {}) : params_(params) {}
  std::string_view name() const override { return "gossip"; }
  std::unique_ptr<ProtocolNode> make_node(ExperimentContext& ctx,
                                          net::NodeId id) override {
    return std::make_unique<GossipNode>(ctx, id, params_);
  }

 private:
  GossipParams params_;
};

}  // namespace hermes::protocols
