#include "protocols/delivery.hpp"

#include <algorithm>

#include "protocols/base.hpp"

namespace hermes::protocols {

// Creation times are shared across lanes, so every mutator goes through
// Engine::defer: from a draining lane it is replayed at the window barrier
// in deterministic (when, seq, idx) order, from anywhere else it runs at
// once.
void DeliveryTracker::on_created(std::uint64_t item, sim::SimTime when) {
  engine_.defer([this, item, when] { created_.try_emplace(item, when); });
}

void DeliveryTracker::restamp_created(std::uint64_t item, sim::SimTime when) {
  engine_.defer([this, item, when] {
    const auto it = created_.find(item);
    if (it != created_.end() && when > it->second) it->second = when;
  });
}

sim::SimTime DeliveryTracker::arrival(std::uint64_t item,
                                      net::NodeId node) const {
  return node < nodes_.size() ? nodes_[node]->pool().arrival_time(item)
                              : -1.0;
}

bool DeliveryTracker::delivered(std::uint64_t item, net::NodeId node) const {
  return created_.count(item) > 0 && arrival(item, node) >= 0.0;
}

sim::SimTime DeliveryTracker::delivery_time(std::uint64_t item,
                                            net::NodeId node) const {
  const auto it = created_.find(item);
  if (it == created_.end()) return -1.0;
  const sim::SimTime at = arrival(item, node);
  return at < 0.0 ? -1.0 : std::max(at, it->second);
}

std::vector<double> DeliveryTracker::latencies(std::uint64_t item) const {
  std::vector<double> out;
  const auto it = created_.find(item);
  if (it == created_.end()) return out;
  for (net::NodeId v = 0; v < nodes_.size(); ++v) {
    const sim::SimTime at = arrival(item, v);
    if (at >= 0.0) out.push_back(std::max(at, it->second) - it->second);
  }
  return out;
}

}  // namespace hermes::protocols
