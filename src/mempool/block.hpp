// Block building — the proposer side of the front-running story.
//
// Miners order blocks from their mempool view. Which log they are held to
// differs per protocol (arrival order by default, LØ's commitment log,
// Narwhal's certificate order — see ProtocolNode::ordering_position); a
// block is the prefix of that order. The front-running verdict of Section
// VIII-F ("the adversarial transaction appears before the victim in the
// blockchain") is then literally a statement about block contents.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mempool/transaction.hpp"

namespace hermes::mempool {

struct Block {
  net::NodeId proposer = 0;
  std::uint64_t height = 0;
  sim::SimTime proposed_at = 0.0;
  // Transaction ids in block order.
  std::vector<std::uint64_t> tx_ids;

  bool contains(std::uint64_t tx_id) const;
  // Position of tx in the block; SIZE_MAX when absent.
  std::size_t position(std::uint64_t tx_id) const;

  crypto::Digest hash() const;
};

// Builds a block of at most `max_txs` transactions from `candidates`,
// ordered by the (position, id) pairs supplied — id breaks ties so block
// building is deterministic. Entries with position SIZE_MAX are skipped
// (not eligible, e.g. uncommitted under LØ's rules).
struct OrderedCandidate {
  std::uint64_t tx_id = 0;
  std::size_t position = SIZE_MAX;
};
Block build_block(net::NodeId proposer, std::uint64_t height,
                  sim::SimTime now, std::vector<OrderedCandidate> candidates,
                  std::size_t max_txs);

}  // namespace hermes::mempool
