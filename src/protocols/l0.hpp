// LØ (Nasrulin et al., Middleware 2023) — accountable mempool baseline.
//
// LØ trades latency for bandwidth and accountability: transactions travel
// over low-fanout gossip, every node first learns a cryptographic
// commitment H(tx) that pins down what its peers knew and when, and a
// periodic mempool *reconciliation* round repairs holes by exchanging
// compact digests with a random neighbor. The commitments are what makes
// reordering detectable; the reconciliation is what keeps bandwidth at the
// bottom of Figure 3b and latency at the top of Figure 3a.
#pragma once

#include <unordered_map>

#include "protocols/gossip.hpp"

namespace hermes::protocols {

struct CommitBody final : sim::Body<CommitBody> {
  mempool::Commitment commitment;
};

struct DigestBody final : sim::Body<DigestBody> {
  std::vector<std::uint64_t> tx_ids;  // sorted
};

struct TxRequestBody final : sim::Body<TxRequestBody> {
  std::vector<std::uint64_t> tx_ids;
};

// LØ's transactions travel over GossipNode's relay (its kMsgTx, at
// kTxFanout, on LØ's own rng); the commitments and reconciliation are LØ's.
class L0Node final : public GossipNode {
 public:
  L0Node(ExperimentContext& ctx, net::NodeId id);

  void submit(const Transaction& tx) override;
  void fast_submit(const Transaction& tx) override;
  void on_message(const sim::Message& msg) override;
  void on_start() override;

  // LØ's witnesses hold block proposers to the *commitment* arrival order
  // — this is the mechanism behind its front-running resistance (the
  // adversary commits only after observing the victim, whose commitment
  // already has a head start). Uncommitted transactions sort after all
  // committed ones.
  std::size_t ordering_position(const Transaction& tx) const override {
    const std::size_t cpos = pool().commitment_position(tx.hash());
    if (cpos != SIZE_MAX) return cpos;
    const std::size_t apos = pool().arrival_position(tx.id);
    return apos == SIZE_MAX ? SIZE_MAX : apos + (std::size_t{1} << 20);
  }

  static constexpr std::uint32_t kMsgCommit = 2;
  static constexpr std::uint32_t kMsgDigest = 3;
  static constexpr std::uint32_t kMsgTxRequest = 4;

  // Low-fanout body gossip.
  static constexpr std::size_t kTxFanout = 2;
  // Commitment gossip: tiny messages, spread wide.
  static constexpr std::size_t kCommitFanout = 4;
  // Reconciliation period.
  static constexpr double kReconIntervalMs = 400.0;
  // Random far peers an adversary blasts to in fast_submit (LØ does not
  // constrain dissemination paths — Section I of the paper).
  static constexpr std::size_t kAdversaryExtraLinks = 24;

  std::size_t reconciliations_started() const { return recon_rounds_; }

 private:
  // Records tx's commitment and gossips it ahead of the body.
  void commit(const Transaction& tx);
  void gossip_commitment(const std::shared_ptr<const sim::MessageBody>& body,
                         net::NodeId except);
  void schedule_reconciliation();

  std::size_t recon_rounds_ = 0;
  std::size_t last_recon_size_ = 0;
  std::size_t idle_skips_ = 0;
};

class L0Protocol final : public Protocol {
 public:
  std::string_view name() const override { return "l0"; }
  std::unique_ptr<ProtocolNode> make_node(ExperimentContext& ctx,
                                          net::NodeId id) override {
    return std::make_unique<L0Node>(ctx, id);
  }
};

}  // namespace hermes::protocols
