// Fixed single-tree dissemination — the "Simple Tree" column of Table I.
//
// One robust tree is built offline; every sender injects at its entry
// points and nodes forward along successor links. No randomization, no
// TRS, no accountability, no fallback: the strawman HERMES improves on.
#pragma once

#include "overlay/robust_tree.hpp"
#include "protocols/gossip.hpp"

namespace hermes::protocols {

class SimpleTreeProtocol;

class SimpleTreeNode final : public ProtocolNode {
 public:
  SimpleTreeNode(ExperimentContext& ctx, net::NodeId id,
                 std::shared_ptr<const overlay::Overlay> tree);

  void submit(const Transaction& tx) override;
  void on_message(const sim::Message& msg) override;

  static constexpr std::uint32_t kMsgTx = 1;

 private:
  // Sends the transaction `body` to this node's tree successors.
  void forward(const std::shared_ptr<const sim::MessageBody>& body,
               std::size_t wire);
  std::shared_ptr<const overlay::Overlay> tree_;
};

class SimpleTreeProtocol final : public Protocol {
 public:
  // The tree tolerates one fault: f + 1 = 2 entry points and predecessors.
  static constexpr std::size_t kF = 1;

  std::string_view name() const override { return "simple-tree"; }
  std::unique_ptr<ProtocolNode> make_node(ExperimentContext& ctx,
                                          net::NodeId id) override;

 private:
  std::shared_ptr<const overlay::Overlay> tree_;
};

}  // namespace hermes::protocols
