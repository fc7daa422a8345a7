// Fault-density assumption checking (Section III / VII-A).
//
// The model requires that within D hops of any node at most f nodes are
// faulty — no node is surrounded. These helpers evaluate the assumption
// for a concrete fault assignment, which the robustness benches use to
// annotate runs where HERMES operates outside its assumptions (and the
// gossip fallback carries the load).
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hpp"

namespace hermes::hermes_proto {

struct FaultDensityReport {
  bool holds = true;
  // Nodes whose D-hop ball contains more than f faulty nodes.
  std::vector<net::NodeId> crowded_nodes;
  std::size_t max_faulty_in_ball = 0;
  // Honest nodes with every physical neighbor faulty (fully surrounded —
  // the situation the model explicitly forbids).
  std::vector<net::NodeId> surrounded_nodes;
};

FaultDensityReport check_fault_density(const net::Graph& g,
                                       const std::vector<bool>& faulty,
                                       std::size_t d_hops, std::size_t f);

}  // namespace hermes::hermes_proto
