#include "mempool/block.hpp"

#include <algorithm>

namespace hermes::mempool {

bool Block::contains(std::uint64_t tx_id) const {
  return position(tx_id) != SIZE_MAX;
}

std::size_t Block::position(std::uint64_t tx_id) const {
  for (std::size_t i = 0; i < tx_ids.size(); ++i) {
    if (tx_ids[i] == tx_id) return i;
  }
  return SIZE_MAX;
}

crypto::Digest Block::hash() const {
  Bytes material;
  put_u32_be(material, proposer);
  put_u64_be(material, height);
  for (std::uint64_t id : tx_ids) put_u64_be(material, id);
  return crypto::sha256(material);
}

Block build_block(net::NodeId proposer, std::uint64_t height,
                  sim::SimTime now, std::vector<OrderedCandidate> candidates,
                  std::size_t max_txs) {
  candidates.erase(
      std::remove_if(candidates.begin(), candidates.end(),
                     [](const OrderedCandidate& c) {
                       return c.position == SIZE_MAX;
                     }),
      candidates.end());
  std::sort(candidates.begin(), candidates.end(),
            [](const OrderedCandidate& a, const OrderedCandidate& b) {
              if (a.position != b.position) return a.position < b.position;
              return a.tx_id < b.tx_id;
            });
  if (candidates.size() > max_txs) candidates.resize(max_txs);

  Block block;
  block.proposer = proposer;
  block.height = height;
  block.proposed_at = now;
  block.tx_ids.reserve(candidates.size());
  for (const OrderedCandidate& c : candidates) {
    block.tx_ids.push_back(c.tx_id);
  }
  return block;
}

}  // namespace hermes::mempool
