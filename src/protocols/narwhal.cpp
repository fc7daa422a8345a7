#include "protocols/narwhal.hpp"

#include <algorithm>

namespace hermes::protocols {

NarwhalNode::NarwhalNode(ExperimentContext& ctx, net::NodeId id)
    : ProtocolNode(ctx, id), rng_(ctx.rng.fork(0x4a0ULL + id)) {}

namespace {

auto id_in(const std::vector<std::uint64_t>& order) {
  return [&order](std::size_t pos) { return order[pos]; };
}

}  // namespace

std::size_t NarwhalNode::ordering_position(const Transaction& tx) const {
  const std::uint32_t cpos = cert_position_.find(tx.id, id_in(cert_order_));
  if (cpos != PositionIndex::kAbsent) return cpos;
  const std::size_t apos = pool_.arrival_position(tx.id);
  return apos == SIZE_MAX ? SIZE_MAX : apos + (std::size_t{1} << 20);
}

bool NarwhalNode::record_certificate(std::uint64_t tx_id) {
  if (!cert_position_.insert(tx_id, cert_order_.size(), id_in(cert_order_))) {
    return false;
  }
  cert_order_.push_back(tx_id);
  return true;
}

void NarwhalNode::broadcast_tx(const std::shared_ptr<const TxBody>& body) {
  // Broadcast over the connected topology (the paper's setup): the batch
  // floods the physical graph, every node forwarding its first copy to
  // kFloodFanout sampled neighbors. Byzantine relays simply sit on it,
  // which is what produces Narwhal's robustness curve in Figure 5b.
  send_to_sample(rng_, kFloodFanout, id(), kMsgTx, body->tx.payload_bytes,
                 body);
}

void NarwhalNode::submit(const Transaction& tx) {
  const auto body = deliver_own(tx);
  acks_.try_emplace(tx.id);
  // The worker waits for the batch to fill (or the delay to expire)
  // before broadcasting — part of Narwhal's dissemination latency.
  ctx_.engine.schedule(kBatchDelayMs, [this, body] {
    broadcast_tx(body);
    retransmit_unacked(body, 0);
  });
}

void NarwhalNode::retransmit_unacked(const std::shared_ptr<const TxBody>& body,
                                     int round) {
  constexpr int kMaxRounds = 3;
  if (round >= kMaxRounds) return;
  ctx_.engine.schedule(kRepairTimeoutMs, [this, body, round] {
    const Transaction& tx = body->tx;
    if (cert_broadcast_.count(tx.id)) return;  // quorum reached
    const auto it = acks_.find(tx.id);
    if (it == acks_.end()) return;
    // Quorum-targeted: resend only to enough random non-ackers to close
    // the ack gap (with 2x slack for further loss). The sender's goal is
    // the certificate, not full coverage -- coverage repair is the
    // certificate-driven pull path, which Byzantine signers can degrade.
    const std::size_t have = it->second.size() + 1;
    if (have >= quorum()) return;
    const std::size_t needed = 2 * (quorum() - have);
    std::vector<net::NodeId> non_ackers;
    for (net::NodeId v = 0; v < ctx_.node_count(); ++v) {
      if (v == id()) continue;
      if (std::find(it->second.begin(), it->second.end(), v) ==
          it->second.end()) {
        non_ackers.push_back(v);
      }
    }
    rng_.shuffle(non_ackers);
    if (non_ackers.size() > needed) non_ackers.resize(needed);
    for (net::NodeId v : non_ackers) send_to(v, kMsgTx, tx.payload_bytes, body);
    retransmit_unacked(body, round + 1);
  });
}

void NarwhalNode::fast_submit(const Transaction& tx) {
  // Narwhal already permits any validator to broadcast at once — the
  // adversary's fastest move is the protocol itself.
  const auto body = deliver_own(tx);
  acks_.try_emplace(tx.id);
  broadcast_tx(body);
}

void NarwhalNode::request_repair(std::uint64_t tx_id,
                                 std::vector<net::NodeId> signers, int round) {
  constexpr int kMaxRounds = 3;
  if (round >= kMaxRounds || pool_.seen(tx_id)) return;
  rng_.shuffle(signers);
  auto fetch = std::make_shared<FetchBody>();
  fetch->tx_id = tx_id;
  std::size_t asked = 0;
  for (net::NodeId s : signers) {
    if (s == id()) continue;
    send_to(s, kMsgFetch, 48, fetch);
    if (++asked >= kRepairRequests) break;
  }
  ctx_.engine.schedule(kRepairTimeoutMs, [this, tx_id, signers, round] {
    request_repair(tx_id, signers, round + 1);
  });
}

void NarwhalNode::on_message(const sim::Message& msg) {
  switch (msg.type) {
    case kMsgTx: {
      const Transaction& tx = msg.as<TxBody>().tx;
      const bool fresh = deliver_tx(msg.body, tx);
      // Relay duty first: flooding over the topology. Only droppers and
      // the attacker itself sit on the victim's batch — block order is
      // decided by certificates here, so co-conspirators gain nothing from
      // detectable relay censorship.
      if (fresh && relays() && !is_my_victim(tx)) {
        send_to_sample(rng_, kFloodFanout, msg.src, kMsgTx, tx.payload_bytes,
                       msg.body);
      }
      // Ack to the batch creator. Byzantine droppers DO ack: acking is
      // cheap and gets them listed as certificate signers, whose fetches
      // they then refuse to serve. The front-running attacker withholds
      // its ack on the victim batch it races.
      if (!fresh || is_my_victim(tx)) return;
      auto ack = std::make_shared<AckBody>();
      ack->tx_id = tx.id;
      send_to(tx.sender, kMsgAck, 40, std::move(ack));
      return;
    }
    case kMsgAck: {
      const std::uint64_t tx_id = msg.as<AckBody>().tx_id;
      auto it = acks_.find(tx_id);
      if (it == acks_.end()) return;  // not ours
      auto& signers = it->second;
      if (std::find(signers.begin(), signers.end(), msg.src) != signers.end()) {
        return;
      }
      signers.push_back(msg.src);
      if (signers.size() + 1 >= quorum() && !cert_broadcast_.count(tx_id)) {
        cert_broadcast_.insert(tx_id);
        ++certs_formed_;
        record_certificate(tx_id);
        // Broadcast the availability certificate with a signer sample large
        // enough for repair. Certificates flood the topology like the
        // batches do.
        auto cert = std::make_shared<CertBody>();
        cert->tx_id = tx_id;
        cert->signers = signers;
        if (cert->signers.size() > 16) cert->signers.resize(16);
        send_to_sample(rng_, kFloodFanout, id(), kMsgCert, cert_wire_bytes(),
                       cert);
      }
      return;
    }
    case kMsgCert: {
      const auto& cert = msg.as<CertBody>();
      const bool fresh = record_certificate(cert.tx_id);
      if (fresh && relays()) {
        send_to_sample(rng_, kFloodFanout, msg.src, kMsgCert,
                       cert_wire_bytes(), msg.body);
      }
      if (pool_.seen(cert.tx_id)) return;
      // Hole: the flood missed us but the certificate proves availability.
      // Pull from signers, re-trying fresh ones until the payload lands.
      request_repair(cert.tx_id, cert.signers, /*round=*/0);
      return;
    }
    case kMsgFetch: {
      if (!relays()) return;  // byzantine: refuse to serve
      const std::uint64_t tx_id = msg.as<FetchBody>().tx_id;
      if (auto body = held_tx_body(tx_id)) {
        const std::size_t wire = body->tx.payload_bytes;
        send_to(msg.src, kMsgTx, wire, std::move(body));
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace hermes::protocols
