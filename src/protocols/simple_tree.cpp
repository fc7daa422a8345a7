#include "protocols/simple_tree.hpp"

namespace hermes::protocols {

SimpleTreeNode::SimpleTreeNode(ExperimentContext& ctx, net::NodeId id,
                               std::shared_ptr<const overlay::Overlay> tree)
    : ProtocolNode(ctx, id), tree_(std::move(tree)) {}

void SimpleTreeNode::forward(const Transaction& tx) {
  for (net::NodeId succ : tree_->successors(id())) {
    auto body = std::make_shared<TxBody>();
    body->tx = tx;
    send_to(succ, kMsgTx, tx.payload_bytes, std::move(body));
  }
}

void SimpleTreeNode::submit(const Transaction& tx) {
  deliver_tx(tx);
  for (net::NodeId entry : tree_->entry_points()) {
    if (entry == id()) {
      forward(tx);
      continue;
    }
    auto body = std::make_shared<TxBody>();
    body->tx = tx;
    send_to(entry, kMsgTx, tx.payload_bytes, std::move(body));
  }
}

void SimpleTreeNode::on_message(const sim::Message& msg) {
  if (msg.type != kMsgTx) return;
  const Transaction& tx = msg.as<TxBody>().tx;
  if (!deliver_tx(tx)) return;
  if (!relays_tx(tx)) return;
  forward(tx);
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
