// Mercury-style low-latency broadcast baseline (Zhou et al., INFOCOM 2023).
//
// Mercury organizes nodes into K latency-based clusters using a virtual
// coordinate system (VCS). Each node keeps D_cluster nearest intra-cluster
// peers and one gateway into every other cluster, capped at D_max links.
// Dissemination uses an *early outburst*: the sender pushes to all its
// gateways and its intra-cluster peers immediately; gateways fan out inside
// their clusters. Two-hop structure = lowest latency in Figure 3a, but the
// single gateway per (sender, cluster) is a choke point: a Byzantine
// gateway starves its cluster, which is Mercury's weak robustness in
// Figure 5b and its front-running exposure in Figure 5a (cluster heads see
// transactions early and sit on fast paths).
#pragma once

#include <array>

#include "protocols/gossip.hpp"

namespace hermes::protocols {

// Figure 3a's setup: K clusters, D_cluster intra-cluster peers, D_max links.
inline constexpr std::size_t kMercuryClusters = 8;      // K
inline constexpr std::size_t kMercuryIntraDegree = 4;   // D_cluster
inline constexpr std::size_t kMercuryMaxDegree = 8;     // D_max

// Cluster assignment + per-node peer tables, computed once per experiment
// from the latency structure (the VCS stand-in: nodes embed at their
// region's coordinate, so latency-nearest == VCS-nearest).
struct MercuryDirectory {
  std::vector<std::size_t> cluster_of;                 // node -> cluster
  std::vector<std::vector<net::NodeId>> intra_peers;   // node -> peers
  std::vector<std::vector<net::NodeId>> gateways;      // node -> 1/cluster
};

MercuryDirectory build_mercury_directory(const net::Topology& topo, Rng& rng);

class MercuryNode final : public ProtocolNode {
 public:
  MercuryNode(ExperimentContext& ctx, net::NodeId id,
              std::shared_ptr<const MercuryDirectory> directory);

  // Also the adversary's fast_submit: its fastest move is the protocol's
  // own outburst, since Mercury hands every node direct links to all
  // clusters.
  void submit(const Transaction& tx) override;
  void on_message(const sim::Message& msg) override;
  void on_start() override;

  static constexpr std::uint32_t kMsgTx = 1;
  // Tagged send to a gateway: the receiver fans out in its own cluster.
  static constexpr std::uint32_t kMsgGatewayTx = 2;
  // Periodic VCS coordinate update (metadata only).
  static constexpr std::uint32_t kMsgVcsUpdate = 3;

  // Virtual-coordinate-system upkeep: each node periodically exchanges
  // coordinate updates with all its peers. This metadata stream is what
  // puts Mercury above HERMES in Figure 3b.
  static constexpr double kVcsUpdateIntervalMs = 1000.0;
  static constexpr std::size_t kVcsUpdateBytes = 64;

 private:
  // Sends the transaction `body` to this node's cluster peers but `except`.
  void intra_fanout(const std::shared_ptr<const sim::MessageBody>& body,
                    std::size_t wire, net::NodeId except);
  void schedule_vcs_tick();

  std::shared_ptr<const MercuryDirectory> dir_;
  Rng rng_;
};

class MercuryProtocol final : public Protocol {
 public:
  std::string_view name() const override { return "mercury"; }
  std::unique_ptr<ProtocolNode> make_node(ExperimentContext& ctx,
                                          net::NodeId id) override;

 private:
  std::shared_ptr<const MercuryDirectory> directory_;
};

}  // namespace hermes::protocols
