// Local overlay transformations (the paper's future-work direction in
// Section IX: repairing overlays under churn without the full epoch
// rebuild of Section VII).
//
// remove_node_locally() detaches a departed node from one overlay and
// repairs only the neighborhood it touched:
//   - its children lose a predecessor; each is topped back up to f+1
//     predecessors with the cheapest available shallower node;
//   - if it was an entry point, the best-connected depth-2 node is
//     promoted to the entry layer (its incoming links are dropped, its
//     own children keep their depth).
// The result passes the usual structural validation with the departed
// node marked absent. Cost is O(neighborhood), vs O(N^2) for a rebuild.
#pragma once

#include <span>

#include "net/graph.hpp"
#include "overlay/overlay.hpp"

namespace hermes::overlay {

struct LocalRepairResult {
  bool ok = false;
  std::size_t links_added = 0;
  std::size_t links_removed = 0;
  bool promoted_entry = false;
};

// Repairs `o` in place after `departed` leaves. Physical edges of `g` are
// preferred for new links; multi-hop logical links (shortest-path latency)
// fill gaps. Fails (returns ok=false, overlay unchanged) only when a child
// cannot reach f+1 predecessors at all.
LocalRepairResult remove_node_locally(Overlay& o, NodeId departed,
                                      const net::Graph& g);

// Validation that tolerates a set of departed nodes: absent nodes may be
// unplaced and unreachable; everyone else must satisfy the usual
// invariants with links to absent nodes ignored.
std::vector<std::string> validate_with_absent(const Overlay& o,
                                              std::span<const NodeId> absent);

}  // namespace hermes::overlay
