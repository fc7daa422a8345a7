// Transactions and commitments — the payloads the dissemination layer
// carries and the LØ-style accountability material built on them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"
#include "net/graph.hpp"
#include "sim/engine.hpp"
#include "support/bytes.hpp"

namespace hermes::mempool {

// The paper's workloads use 250-byte transactions.
inline constexpr std::size_t kDefaultTxBytes = 250;

struct Transaction {
  std::uint64_t id = 0;          // globally unique (sender << 32 | seq)
  net::NodeId sender = 0;        // source node
  std::uint64_t sender_seq = 0;  // sender-local sequence number
  sim::SimTime created_at = 0.0;
  std::size_t payload_bytes = kDefaultTxBytes;
  // Priority fee bid for mempool admission under bounded capacity (0 =
  // fee-less legacy workloads). Deliberately excluded from hash(): the
  // fee is an admission bid the sender may rebroadcast higher, not part of
  // the committed transaction content the TRS/commitments bind.
  std::uint64_t fee = 0;
  // Adversarial transactions mark the victim they try to front-run.
  bool adversarial = false;
  std::uint64_t victim_id = 0;

  static std::uint64_t make_id(net::NodeId sender, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(sender) << 32) | seq;
  }

  // Content hash binding (id, sender, seq, size) — what LØ commits to and
  // what HERMES's committee signs into the TRS.
  crypto::Digest hash() const;
};

// Wire encoding of transaction batches (used by the erasure-coded batch
// dissemination of Section VIII-D). The payload bytes themselves are
// synthetic in the simulator; the encoding carries the metadata and charges
// the declared payload size. Fees ride in a trailing appendix emitted only
// when some member pays a nonzero fee, so fee-less batches keep the
// historical byte encoding (and therefore batch hash and corpus traces).
Bytes serialize_batch(std::span<const Transaction> txs);
std::optional<std::vector<Transaction>> deserialize_batch(BytesView bytes);
// Total wire size a batch of these transactions occupies.
std::size_t batch_wire_size(std::span<const Transaction> txs);
// Content hash of a batch (what the TRS binds for batched dissemination).
crypto::Digest batch_hash(std::span<const Transaction> txs);

// A mempool commitment: the hash a node exchanges before revealing the
// transaction body (LØ's accountability primitive).
struct Commitment {
  crypto::Digest tx_hash{};
};

}  // namespace hermes::mempool
