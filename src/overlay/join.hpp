// Incremental join placement (the second half of the Section IX churn
// story; remove_node_locally() in repair.hpp is the departure half).
//
// attach_node_locally() places a joining node into one overlay without a
// global pass: it scans the candidate depths (2 .. max_depth+1 — joins
// never enter the f+1 entry layer), selects the f+1 cheapest predecessors
// under a soft out-degree cap at each depth, and scores each depth by the
// exact Eq.-(1) objective delta the attachment would cause. After two
// shared linear sweeps (earliest arrivals + latency/unreachable tallies;
// the deepest layer's successor shortfall) each depth's delta is
// O(degree): f+1 new edges, the reached-average latency change, the
// joiner's unreachable credit, and the connectivity-deficit change
// (interior placements owe f+1 successors, parents that were short get
// credited, depth-extending placements charge the old deepest layer).
// The chosen placement is a pure function of (overlay, joiner, graph), so
// every honest node that applies the same join sequence to the same base
// overlay converges on byte-identical trees (the same canonical-
// determinism bar remove_node_locally meets).
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/graph.hpp"
#include "overlay/annealing.hpp"
#include "overlay/overlay.hpp"
#include "support/thread_annotations.hpp"

namespace hermes::overlay {

// Lazily caches single-source shortest-path rows of the physical graph, so
// repeated joins of the same node (one per tree, and again in later epochs)
// price their logical links without rerunning Dijkstra. Thread-safe; rows
// are immutable once computed.
class LinkCostCache {
 public:
  explicit LinkCostCache(const net::Graph& g) : g_(g) {}

  // Physical edge latency of (a, b) if the edge exists, else the
  // shortest-path latency from a's cached row.
  double cost(NodeId a, NodeId b) const;

 private:
  const net::Graph& g_;
  mutable std::mutex mu_;
  mutable std::unordered_map<NodeId, std::unique_ptr<const std::vector<double>>>
      cache_ HERMES_GUARDED_BY(mu_);
};

struct JoinPlacementResult {
  bool ok = false;
  std::size_t links_added = 0;
  std::size_t depth = 0;           // depth the joiner was placed at
  // Exact Eq.-(1) change of the placement (rank term aside — depths of
  // other nodes never move). Often negative: clearing the joiner's
  // unreachable penalty and filling parents' successor shortfalls are
  // credits.
  double objective_delta = 0.0;
};

// Soft out-degree cap used to spread join load across parents: a parent at
// or above the cap is only chosen when no cheaper under-cap parent exists.
std::size_t join_out_degree_cap(std::size_t f);

// Attaches `joiner` (currently unplaced: depth 0, no links) to `o` under
// the role/latency/out-degree constraints above. Physical edges of `g` are
// preferred; multi-hop logical links (shortest-path latency) fill gaps.
// Passing `costs` reuses a shared shortest-path cache instead of running
// per-call Dijkstras. Fails (overlay unchanged) when no depth offers f+1
// distinct predecessors.
JoinPlacementResult attach_node_locally(Overlay& o, NodeId joiner,
                                        const net::Graph& g,
                                        const LinkCostCache* costs = nullptr,
                                        const ObjectiveWeights& weights = {});

}  // namespace hermes::overlay
