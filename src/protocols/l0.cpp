#include "protocols/l0.hpp"

namespace hermes::protocols {

namespace {
// Compact digest cost on the wire: LØ uses set sketches; we charge a small
// constant plus a few bytes per entry.
std::size_t digest_wire_bytes(std::size_t entries) { return 16 + entries * 4; }
}  // namespace

L0Node::L0Node(ExperimentContext& ctx, net::NodeId id)
    : GossipNode(ctx, id, GossipParams{kTxFanout},
                 ctx.rng.fork(0x10ULL + id)) {}

void L0Node::on_start() { schedule_reconciliation(); }

void L0Node::schedule_reconciliation() {
  // Desynchronize nodes with a random phase.
  const double phase = rng_.uniform_real(0.0, kReconIntervalMs);
  ctx_.engine.schedule(phase, [this] {
    const auto tick = [this](auto&& self) -> void {
      // Lazy reconciliation: reconcile eagerly while the pool is changing,
      // but only every `idle_backoff` rounds when it is not — an idle
      // mempool costs (almost) nothing, which is how LØ stays at the
      // bottom of Figure 3b, while the slow keepalive still repairs nodes
      // whose neighbors went quiescent before they were fully caught up.
      constexpr std::size_t kIdleBackoff = 8;
      const bool changed = pool_.size() != last_recon_size_;
      const bool keepalive = (++idle_skips_ % kIdleBackoff) == 0;
      if (relays() && pool_.size() > 0 && (changed || keepalive)) {
        last_recon_size_ = pool_.size();
        ++recon_rounds_;
        const auto& nbrs = ctx_.topology.graph.neighbors(id());
        if (!nbrs.empty()) {
          const net::NodeId peer =
              nbrs[rng_.uniform_u64(nbrs.size())].to;
          auto body = std::make_shared<DigestBody>();
          body->tx_ids = pool_.digest();
          const std::size_t wire = digest_wire_bytes(body->tx_ids.size());
          send_to(peer, kMsgDigest, wire, std::move(body));
        }
      }
      ctx_.engine.schedule(kReconIntervalMs,
                           [this, self] { self(self); });
    };
    tick(tick);
  });
}

void L0Node::commit(const Transaction& tx) {
  auto body = std::make_shared<CommitBody>();
  body->commitment = mempool::Commitment{tx.hash()};
  pool_.add_commitment(body->commitment);
  gossip_commitment(body, id());
}

void L0Node::gossip_commitment(
    const std::shared_ptr<const sim::MessageBody>& body, net::NodeId except) {
  send_to_sample(rng_, kCommitFanout, except, kMsgCommit,
                 sizeof(crypto::Digest) + 8, body);
}

void L0Node::submit(const Transaction& tx) {
  const auto body = deliver_own(tx);
  // Commit-before-reveal: the commitment precedes the body so witnesses can
  // later audit ordering claims.
  commit(tx);
  forward_to_neighbors(body, tx.payload_bytes, kTxFanout, id());
}

void L0Node::fast_submit(const Transaction& tx) {
  // The adversary still has to commit (witnesses would catch an uncommitted
  // transaction), then blasts the body over ad-hoc links.
  const auto body = deliver_own(tx);
  commit(tx);
  blast(body, kAdversaryExtraLinks);
}

void L0Node::on_message(const sim::Message& msg) {
  switch (msg.type) {
    case kMsgTx:
      GossipNode::on_message(msg);
      return;
    case kMsgCommit: {
      const auto& c = msg.as<CommitBody>().commitment;
      if (pool_.has_commitment(c.tx_hash)) return;
      pool_.add_commitment(c);
      if (!relays()) return;
      gossip_commitment(msg.body, msg.src);
      return;
    }
    case kMsgDigest: {
      if (!relays()) return;  // droppers do not serve reconciliation
      const auto& peer_ids = msg.as<DigestBody>().tx_ids;
      // Push what the peer is missing.
      const auto missing = pool_.missing_from(peer_ids);
      std::size_t pushed = 0;
      for (std::uint64_t id_missing : missing) {
        if (auto body = held_tx_body(id_missing)) {
          const std::size_t wire = body->tx.payload_bytes;
          send_to(msg.src, kMsgTx, wire, std::move(body));
          if (++pushed >= 32) break;  // bound per-round repair burst
        }
      }
      // Pull what we are missing.
      std::vector<std::uint64_t> wanted;
      for (std::uint64_t peer_id : peer_ids) {
        // seen(), not contains(): evicted bodies are not re-pulled.
        if (!pool_.seen(peer_id)) wanted.push_back(peer_id);
        if (wanted.size() >= 32) break;
      }
      if (!wanted.empty()) {
        auto req = std::make_shared<TxRequestBody>();
        req->tx_ids = std::move(wanted);
        const std::size_t wire = digest_wire_bytes(req->tx_ids.size());
        send_to(msg.src, kMsgTxRequest, wire, std::move(req));
      }
      return;
    }
    case kMsgTxRequest: {
      if (!relays()) return;
      for (std::uint64_t id_wanted : msg.as<TxRequestBody>().tx_ids) {
        if (auto body = held_tx_body(id_wanted)) {
          const std::size_t wire = body->tx.payload_bytes;
          send_to(msg.src, kMsgTx, wire, std::move(body));
        }
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace hermes::protocols
