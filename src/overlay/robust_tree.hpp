// Robust-tree overlay construction — Algorithm 1 (CreateRobustTree).
//
// Starting from f+1 entry points chosen among the nodes with the lowest
// accumulated rank (and lowest latency to their neighbors), the builder
// grows layers where each new node is physically connected to ALL nodes of
// the previous layer, doubling the layer budget (2^d * (f+1)) until no node
// fits the pattern. Remaining nodes are then integrated with f+1 links each.
// A node left without f+1 physical edges into the overlay gets "logical"
// links that ride multi-hop physical paths, at the physical shortest-path
// latency; the paper assumes the network is connected enough that this is
// rare. Accumulated ranks are updated with each node's depth so that
// subsequent trees rotate the near-root roles (Section V-B, role
// balancing).
#pragma once

#include <vector>

#include "net/graph.hpp"
#include "overlay/overlay.hpp"
#include "support/rng.hpp"

namespace hermes::overlay {

// Accumulated rank per node across previously built overlays (rank(v) in
// the paper, initially 0; incremented by the node's depth in each tree).
using RankTable = std::vector<double>;

// Builds one robust tree with f+1 entry points over `g`, updating `ranks`
// in place.
Overlay build_robust_tree(const net::Graph& g, std::size_t f,
                          RankTable& ranks);

}  // namespace hermes::overlay
