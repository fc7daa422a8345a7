#include "protocols/simple_tree.hpp"

namespace hermes::protocols {

SimpleTreeNode::SimpleTreeNode(ExperimentContext& ctx, net::NodeId id,
                               std::shared_ptr<const overlay::Overlay> tree)
    : ProtocolNode(ctx, id), tree_(std::move(tree)) {}

void SimpleTreeNode::forward(const std::shared_ptr<const sim::MessageBody>& body,
                             std::size_t wire) {
  for (net::NodeId succ : tree_->successors(id())) {
    send_to(succ, kMsgTx, wire, body);
  }
}

void SimpleTreeNode::submit(const Transaction& tx) {
  const auto body = deliver_own(tx);
  for (net::NodeId entry : tree_->entry_points()) {
    if (entry == id()) {
      forward(body, tx.payload_bytes);
    } else {
      send_to(entry, kMsgTx, tx.payload_bytes, body);
    }
  }
}

void SimpleTreeNode::on_message(const sim::Message& msg) {
  if (msg.type != kMsgTx) return;
  const Transaction& tx = msg.as<TxBody>().tx;
  if (!deliver_tx(msg.body, tx)) return;
  if (!relays_tx(tx)) return;
  forward(msg.body, tx.payload_bytes);
}

std::unique_ptr<ProtocolNode> SimpleTreeProtocol::make_node(
    ExperimentContext& ctx, net::NodeId id) {
  if (!tree_) {
    overlay::RankTable ranks(ctx.node_count(), 0.0);
    tree_ = std::make_shared<const overlay::Overlay>(
        overlay::build_robust_tree(ctx.topology.graph, kF, ranks));
  }
  return std::make_unique<SimpleTreeNode>(ctx, id, tree_);
}

}  // namespace hermes::protocols
