#include "protocols/gossip.hpp"

namespace hermes::protocols {

GossipNode::GossipNode(ExperimentContext& ctx, net::NodeId id,
                       GossipParams params)
    : ProtocolNode(ctx, id),
      params_(params),
      rng_(ctx.rng.fork(0x90551b000ULL + id)) {}

void GossipNode::send_tx(net::NodeId dst, const Transaction& tx) {
  auto body = std::make_shared<TxBody>();
  body->tx = tx;
  send_to(dst, kMsgTx, tx.payload_bytes, std::move(body));
}

void GossipNode::forward_to_neighbors(const Transaction& tx, std::size_t count,
                                      net::NodeId except) {
  const auto& nbrs = ctx_.topology.graph.neighbors(id());
  if (nbrs.empty()) return;
  if (count >= nbrs.size()) {
    for (const auto& e : nbrs) {
      if (e.to != except) send_tx(e.to, tx);
    }
    return;
  }
  for (std::size_t i : rng_.sample_indices(nbrs.size(), count)) {
    if (nbrs[i].to != except) send_tx(nbrs[i].to, tx);
  }
}

void GossipNode::submit(const Transaction& tx) {
  deliver_tx(tx);
  forward_to_neighbors(tx, params_.fanout, id());
}

void GossipNode::fast_submit(const Transaction& tx) {
  // Adversarial fast path: flood every neighbor and a batch of random far
  // nodes over ad-hoc links.
  forward_to_neighbors(tx, ctx_.topology.graph.degree(id()), id());
  for (std::size_t i = 0; i < kAdversaryExtraLinks; ++i) {
    const net::NodeId dst =
        static_cast<net::NodeId>(rng_.uniform_u64(ctx_.node_count()));
    if (dst != id()) send_tx(dst, tx);
  }
}

void GossipNode::on_message(const sim::Message& msg) {
  if (msg.type != kMsgTx) return;
  const Transaction& tx = msg.as<TxBody>().tx;
  if (!deliver_tx(tx)) return;       // duplicate
  if (!relays_tx(tx)) return;        // droppers / front-run censorship
  forward_to_neighbors(tx, params_.fanout, msg.src);
}

}  // namespace hermes::protocols
