#include "protocols/gossip.hpp"

namespace hermes::protocols {

GossipNode::GossipNode(ExperimentContext& ctx, net::NodeId id,
                       GossipParams params)
    : GossipNode(ctx, id, params, ctx.rng.fork(0x90551b000ULL + id)) {}

GossipNode::GossipNode(ExperimentContext& ctx, net::NodeId id,
                       GossipParams params, Rng rng)
    : ProtocolNode(ctx, id), params_(params), rng_(std::move(rng)) {}

void GossipNode::forward_to_neighbors(
    const std::shared_ptr<const sim::MessageBody>& body, std::size_t wire,
    std::size_t count, net::NodeId except) {
  const auto& nbrs = ctx_.topology.graph.neighbors(id());
  if (count < nbrs.size()) {
    send_to_sample(rng_, count, except, kMsgTx, wire, body);
    return;
  }
  for (const auto& e : nbrs) {
    if (e.to != except) send_to(e.to, kMsgTx, wire, body);
  }
}

void GossipNode::blast(const std::shared_ptr<const TxBody>& body,
                       std::size_t extra_links) {
  const std::size_t wire = body->tx.payload_bytes;
  forward_to_neighbors(body, wire, ctx_.topology.graph.degree(id()), id());
  for (std::size_t i = 0; i < extra_links; ++i) {
    const net::NodeId dst =
        static_cast<net::NodeId>(rng_.uniform_u64(ctx_.node_count()));
    if (dst != id()) send_to(dst, kMsgTx, wire, body);
  }
}

void GossipNode::submit(const Transaction& tx) {
  forward_to_neighbors(deliver_own(tx), tx.payload_bytes, params_.fanout,
                       id());
}

void GossipNode::fast_submit(const Transaction& tx) {
  blast(deliver_own(tx), kAdversaryExtraLinks);
}

void GossipNode::on_message(const sim::Message& msg) {
  if (msg.type != kMsgTx) return;
  const Transaction& tx = msg.as<TxBody>().tx;
  if (!deliver_tx(msg.body, tx)) return;  // duplicate
  if (!relays_tx(tx)) return;        // droppers / front-run censorship
  forward_to_neighbors(msg.body, tx.payload_bytes, params_.fanout, msg.src);
}

}  // namespace hermes::protocols
