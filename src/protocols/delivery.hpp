// Delivery reporting: creation timestamps per transaction, with first
// deliveries read from the nodes' mempools — the raw material for every
// latency / robustness figure in the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/graph.hpp"
#include "sim/engine.hpp"

namespace hermes::protocols {

class ProtocolNode;

// The mempool is the only record of first delivery: ProtocolNode::
// deliver_tx stamps Mempool::arrival_time on a fresh insert, and the
// readers below answer from it. The tracker itself keeps one creation time
// per transaction. Items never passed to on_created are invisible to the
// readers, and a delivery reads as max(arrival, creation), so a restamp
// lifts the origin's own earlier delivery to the new start (latencies stay
// nonnegative). Readers must only run at quiescent points (between runs,
// control events), which is where every report in the repo reads.
class DeliveryTracker {
 public:
  DeliveryTracker(sim::Engine& engine,
                  const std::vector<std::unique_ptr<ProtocolNode>>& nodes)
      : engine_(engine), nodes_(nodes) {}
  // Deferred calls hold `this` until the next window barrier.
  DeliveryTracker(const DeliveryTracker&) = delete;
  DeliveryTracker& operator=(const DeliveryTracker&) = delete;

  // Records that `item` (a transaction/message id) originated at `when`.
  void on_created(std::uint64_t item, sim::SimTime when);
  // Moves the creation timestamp forward to `when` — used when a protocol
  // starts propagating the payload later than submission (e.g. HERMES
  // forwards m only after the TRS round; latency figures measure the
  // propagation of m, matching the paper).
  void restamp_created(std::uint64_t item, sim::SimTime when);

  bool delivered(std::uint64_t item, net::NodeId node) const;
  // First delivery time or a negative value when never delivered.
  sim::SimTime delivery_time(std::uint64_t item, net::NodeId node) const;

  // Latencies (delivery - creation) of `item` across nodes that received
  // it, in node order.
  std::vector<double> latencies(std::uint64_t item) const;

 private:
  // Mempool arrival time of `item` at `node`, negative when never seen.
  sim::SimTime arrival(std::uint64_t item, net::NodeId node) const;

  sim::Engine& engine_;
  const std::vector<std::unique_ptr<ProtocolNode>>& nodes_;
  std::unordered_map<std::uint64_t, sim::SimTime> created_;
};

}  // namespace hermes::protocols
