#include "protocols/brb.hpp"

namespace hermes::protocols {

namespace {
// Echo, Ready and Fetch carry only the transaction id.
std::shared_ptr<const BrbVoteBody> vote_body(std::uint64_t tx_id) {
  auto body = std::make_shared<BrbVoteBody>();
  body->tx_id = tx_id;
  return body;
}
}  // namespace

BrbNode::BrbNode(ExperimentContext& ctx, net::NodeId id)
    : ProtocolNode(ctx, id), rng_(ctx.rng.fork(0xb4bULL + id)) {}

void BrbNode::broadcast(std::uint32_t type, std::size_t wire,
                        const std::shared_ptr<const sim::MessageBody>& body) {
  for (net::NodeId v = 0; v < ctx_.node_count(); ++v) {
    if (v != id()) send_to(v, type, wire, body);
  }
}

void BrbNode::submit(const Transaction& tx) {
  const auto body = deliver_own(tx);
  Instance& inst = instances_[tx.id];
  inst.have_payload = true;
  inst.echoed = true;
  inst.echoes.insert(id());
  broadcast(kMsgSend, tx.payload_bytes, body);
  broadcast(kMsgEcho, 16, vote_body(tx.id));
  maybe_progress(tx.id, inst);
}

void BrbNode::maybe_progress(std::uint64_t tx_id, Instance& inst) {
  const std::size_t f = f_max();
  if (!inst.readied &&
      (inst.echoes.size() >= 2 * f + 1 || inst.readies.size() >= f + 1)) {
    inst.readied = true;
    inst.readies.insert(id());
    if (relays()) broadcast(kMsgReady, 16, vote_body(tx_id));
  }
  if (!inst.delivered && inst.readies.size() >= 2 * f + 1) {
    inst.delivered = true;
    delivered_.insert(tx_id);
    if (!inst.have_payload) {
      // Deliverable but payload missing: pull from nodes that echoed
      // (at least 2f+1 echoed, so f+1 of them are honest and hold it).
      const auto fetch = vote_body(tx_id);
      std::size_t asked = 0;
      for (net::NodeId v : inst.echoes) {
        if (v == id()) continue;
        send_to(v, kMsgFetch, 16, fetch);
        if (++asked > f) break;  // f+1 requests reach an honest holder
      }
    }
  }
}

void BrbNode::on_message(const sim::Message& msg) {
  switch (msg.type) {
    case kMsgSend: {
      const Transaction& tx = msg.as<TxBody>().tx;
      const bool fresh = deliver_tx(msg.body, tx);
      Instance& inst = instances_[tx.id];
      inst.have_payload = true;
      if (fresh && !inst.echoed && relays_tx(tx)) {
        inst.echoed = true;
        inst.echoes.insert(id());
        broadcast(kMsgEcho, 16, vote_body(tx.id));
      }
      maybe_progress(tx.id, inst);
      return;
    }
    case kMsgEcho: {
      const std::uint64_t tx_id = msg.as<BrbVoteBody>().tx_id;
      Instance& inst = instances_[tx_id];
      inst.echoes.insert(msg.src);
      if (relays()) maybe_progress(tx_id, inst);
      return;
    }
    case kMsgReady: {
      const std::uint64_t tx_id = msg.as<BrbVoteBody>().tx_id;
      Instance& inst = instances_[tx_id];
      inst.readies.insert(msg.src);
      if (relays()) maybe_progress(tx_id, inst);
      return;
    }
    case kMsgFetch: {
      if (!relays()) return;
      const std::uint64_t tx_id = msg.as<BrbVoteBody>().tx_id;
      if (auto body = held_tx_body(tx_id)) {
        const std::size_t wire = body->tx.payload_bytes;
        send_to(msg.src, kMsgSend, wire, std::move(body));
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace hermes::protocols
