// Narwhal-style mempool baseline (Danezis et al., EuroSys 2022).
//
// A validator broadcasts its batch (here: a transaction) directly to every
// other validator; receivers acknowledge; once 2/3 of the network has
// acknowledged, the sender forms an availability certificate and broadcasts
// it. Nodes that see a certificate for a batch they never received pull it
// from the certificate's signers. The all-to-all broadcast is what drives
// Narwhal's bandwidth to the top of Figure 3b; the direct sends keep its
// latency moderate (Figure 3a); the pull-repair gives decent but not
// HERMES-level robustness (Figure 5b).
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "protocols/gossip.hpp"
#include "support/position_index.hpp"

namespace hermes::protocols {

struct AckBody final : sim::Body<AckBody> {
  std::uint64_t tx_id = 0;
};

struct CertBody final : sim::Body<CertBody> {
  std::uint64_t tx_id = 0;
  std::vector<net::NodeId> signers;  // 2f+1 ack'ers (sampled for repair)
};

struct FetchBody final : sim::Body<FetchBody> {
  std::uint64_t tx_id = 0;
};

class NarwhalNode final : public ProtocolNode {
 public:
  NarwhalNode(ExperimentContext& ctx, net::NodeId id);

  void submit(const Transaction& tx) override;
  void fast_submit(const Transaction& tx) override;
  void on_message(const sim::Message& msg) override;

  // Narwhal's consumers (Tusk/Bullshark) order by *certificate*
  // availability, not raw batch arrival. Byzantine validators withhold
  // acks on victim batches, delaying their certificates, while their own
  // adversarial batches certify at the speed of the fastest 2/3 — this is
  // what makes Narwhal's front-running exposure grow with the Byzantine
  // fraction (Figure 5a). Certificates the node has not (yet) seen sort
  // after all certified batches.
  std::size_t ordering_position(const Transaction& tx) const override;

  static constexpr std::uint32_t kMsgTx = 1;
  static constexpr std::uint32_t kMsgAck = 2;
  static constexpr std::uint32_t kMsgCert = 3;
  static constexpr std::uint32_t kMsgFetch = 4;

  // Relay fanout of the batch/certificate flood over the topology (the
  // paper's "connected topology" broadcast). Bounded like production
  // gossip stacks; lower redundancy is what Byzantine relays exploit in
  // Figure 5b.
  static constexpr std::size_t kFloodFanout = 4;
  // How many certificate signers a node asks when repairing a hole.
  static constexpr std::size_t kRepairRequests = 2;
  static constexpr double kRepairTimeoutMs = 150.0;
  // Worker batch accumulation before broadcast (Narwhal's max_batch_delay;
  // production deployments use 100-200 ms). Front-runners flush their own
  // worker immediately, so this does not blunt the attack model.
  static constexpr double kBatchDelayMs = 120.0;

  std::size_t certificates_formed() const { return certs_formed_; }

 private:
  void broadcast_tx(const std::shared_ptr<const TxBody>& body);
  std::size_t quorum() const {  // 2f_max + 1 with f_max = floor(n/3)
    return 2 * (ctx_.node_count() / 3) + 1;
  }
  // A real availability certificate carries 2f+1 signatures; that
  // quorum-sized payload (not the repair sample) is what dominates
  // Narwhal's wire cost as n grows (Figure 3b).
  std::size_t cert_wire_bytes() const { return 48 + quorum() * 36; }

  Rng rng_;
  // Appends `tx_id` to the certificate order unless it is there; returns
  // whether it was new.
  bool record_certificate(std::uint64_t tx_id);
  // Pull the batch from up to kRepairRequests random signers; re-arms
  // itself every kRepairTimeoutMs (up to 3 rounds) while the hole stays.
  void request_repair(std::uint64_t tx_id, std::vector<net::NodeId> signers,
                      int round);
  // Sender-side reliability: real Narwhal runs over TCP; on lossy links we
  // model that by retransmitting the batch to non-ackers until the
  // certificate forms (up to 3 rounds, kRepairTimeoutMs apart).
  void retransmit_unacked(const std::shared_ptr<const TxBody>& body,
                          int round);

  // Sender-side: acks collected per own transaction.
  std::unordered_map<std::uint64_t, std::vector<net::NodeId>> acks_;
  std::unordered_set<std::uint64_t> cert_broadcast_;
  // Receiver-side: certificate arrival log (the availability order), tx ids
  // by first arrival, and the index of each id's position in it.
  std::vector<std::uint64_t> cert_order_;
  PositionIndex cert_position_;
  std::size_t certs_formed_ = 0;
};

class NarwhalProtocol final : public Protocol {
 public:
  std::string_view name() const override { return "narwhal"; }
  std::unique_ptr<ProtocolNode> make_node(ExperimentContext& ctx,
                                          net::NodeId id) override {
    return std::make_unique<NarwhalNode>(ctx, id);
  }
};

}  // namespace hermes::protocols
