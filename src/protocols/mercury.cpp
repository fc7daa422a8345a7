#include "protocols/mercury.hpp"

#include <algorithm>

namespace hermes::protocols {

MercuryDirectory build_mercury_directory(const net::Topology& topo, Rng& rng) {
  const std::size_t n = topo.graph.node_count();
  MercuryDirectory dir;
  dir.cluster_of.resize(n);
  dir.intra_peers.resize(n);
  dir.gateways.resize(n);

  // VCS stand-in: nodes embed at their region's coordinate, so clusters are
  // latency-coherent region groups (regions folded onto K clusters).
  std::vector<std::vector<net::NodeId>> members(kMercuryClusters);
  for (net::NodeId v = 0; v < n; ++v) {
    const std::size_t c =
        static_cast<std::size_t>(topo.regions[v]) % kMercuryClusters;
    dir.cluster_of[v] = c;
    members[c].push_back(v);
  }

  // Expected pair latency in VCS space: same region ~ intra mean, else the
  // inter-region mean; used only for ranking candidates.
  auto vcs_distance = [&](net::NodeId a, net::NodeId b) {
    if (const auto lat = topo.graph.edge_latency(a, b)) return *lat;
    return topo.regions[a] == topo.regions[b] ? 9.3 : 90.0;
  };

  // Intra-cluster ring (over a shuffled order) guarantees every cluster is
  // strongly connected under relaying; pure nearest-neighbor tables can
  // fragment a cluster into latency islands.
  std::vector<std::vector<net::NodeId>> ring_next(kMercuryClusters);
  for (std::size_t c = 0; c < kMercuryClusters; ++c) {
    ring_next[c] = members[c];
    rng.shuffle(ring_next[c]);
  }
  auto ring_successor = [&](net::NodeId v) -> net::NodeId {
    const auto& order = ring_next[dir.cluster_of[v]];
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == v) return order[(i + 1) % order.size()];
    }
    return v;
  };

  for (net::NodeId v = 0; v < n; ++v) {
    // Intra-cluster peers: the ring successor plus the VCS-nearest cluster
    // mates up to D_cluster (ties broken deterministically via the rng).
    std::vector<net::NodeId> mates = members[dir.cluster_of[v]];
    mates.erase(std::remove(mates.begin(), mates.end(), v), mates.end());
    rng.shuffle(mates);
    std::stable_sort(mates.begin(), mates.end(),
                     [&](net::NodeId a, net::NodeId b) {
                       return vcs_distance(v, a) < vcs_distance(v, b);
                     });
    std::vector<net::NodeId> chosen;
    const net::NodeId succ = ring_successor(v);
    if (succ != v) chosen.push_back(succ);
    for (net::NodeId m : mates) {
      if (chosen.size() >= kMercuryIntraDegree) break;
      if (std::find(chosen.begin(), chosen.end(), m) == chosen.end()) {
        chosen.push_back(m);
      }
    }
    dir.intra_peers[v] = std::move(chosen);

    // One gateway into each other cluster, nearest-first, capped so the
    // total degree stays within D_max.
    const std::size_t gateway_budget =
        kMercuryMaxDegree > dir.intra_peers[v].size()
            ? kMercuryMaxDegree - dir.intra_peers[v].size()
            : 0;
    std::vector<std::pair<double, net::NodeId>> candidates;
    for (std::size_t c = 0; c < kMercuryClusters; ++c) {
      if (c == dir.cluster_of[v] || members[c].empty()) continue;
      net::NodeId best = members[c][rng.uniform_u64(members[c].size())];
      double best_d = vcs_distance(v, best);
      for (net::NodeId m : members[c]) {
        const double d = vcs_distance(v, m);
        if (d < best_d) {
          best_d = d;
          best = m;
        }
      }
      candidates.emplace_back(best_d, best);
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [d, g] : candidates) {
      if (dir.gateways[v].size() >= gateway_budget) break;
      dir.gateways[v].push_back(g);
    }
  }
  return dir;
}

MercuryNode::MercuryNode(ExperimentContext& ctx, net::NodeId id,
                         std::shared_ptr<const MercuryDirectory> directory)
    : ProtocolNode(ctx, id),
      dir_(std::move(directory)),
      rng_(ctx.rng.fork(0x6e7c00ULL + id)) {}

void MercuryNode::on_start() { schedule_vcs_tick(); }

void MercuryNode::schedule_vcs_tick() {
  // Desynchronized periodic coordinate updates to every peer.
  const double phase = rng_.uniform_real(0.0, kVcsUpdateIntervalMs);
  ctx_.engine.schedule(phase, [this] {
    const auto tick = [this](auto&& self) -> void {
      if (relays()) {
        // hermeslint: allow(tag-exhaustive) signal-only body: receivers bill bandwidth on arrival and never read a payload
        struct VcsBody final : sim::Body<VcsBody> {};
        const auto body = std::make_shared<const VcsBody>();
        for (net::NodeId p : dir_->intra_peers[id()]) {
          send_to(p, kMsgVcsUpdate, kVcsUpdateBytes, body);
        }
        for (net::NodeId g : dir_->gateways[id()]) {
          send_to(g, kMsgVcsUpdate, kVcsUpdateBytes, body);
        }
      }
      ctx_.engine.schedule(kVcsUpdateIntervalMs,
                           [this, self] { self(self); });
    };
    tick(tick);
  });
}

void MercuryNode::intra_fanout(
    const std::shared_ptr<const sim::MessageBody>& body, std::size_t wire,
    net::NodeId except) {
  for (net::NodeId p : dir_->intra_peers[id()]) {
    if (p != except) send_to(p, kMsgTx, wire, body);
  }
}

void MercuryNode::submit(const Transaction& tx) {
  // Early outburst: gateways first (they unlock whole clusters), then the
  // local cluster peers, all sharing one body.
  const auto body = deliver_own(tx);
  for (net::NodeId g : dir_->gateways[id()]) {
    send_to(g, kMsgGatewayTx, tx.payload_bytes, body);
  }
  intra_fanout(body, tx.payload_bytes, id());
}

void MercuryNode::on_message(const sim::Message& msg) {
  if (msg.type == kMsgVcsUpdate) return;  // metadata only
  const Transaction& tx = msg.as<TxBody>().tx;
  const bool fresh = deliver_tx(msg.body, tx);
  if (!fresh || !relays_tx(tx)) return;
  intra_fanout(msg.body, tx.payload_bytes, msg.src);
  if (msg.type == kMsgGatewayTx) {
    // We are a gateway for this transaction: besides fanning out in our
    // cluster, relay to our own gateways. With D_max - D_cluster gateways
    // per node, clusters beyond the sender's direct reach are covered in a
    // second inter-cluster hop (deduplication stops the recursion).
    for (net::NodeId g : dir_->gateways[id()]) {
      if (g != msg.src) send_to(g, kMsgGatewayTx, tx.payload_bytes, msg.body);
    }
  }
}

std::unique_ptr<ProtocolNode> MercuryProtocol::make_node(ExperimentContext& ctx,
                                                         net::NodeId id) {
  if (!directory_) {
    Rng dir_rng = ctx.rng.fork(0x6e7c);
    directory_ = std::make_shared<const MercuryDirectory>(
        build_mercury_directory(ctx.topology, dir_rng));
  }
  return std::make_unique<MercuryNode>(ctx, id, directory_);
}

}  // namespace hermes::protocols
