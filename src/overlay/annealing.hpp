// Overlay latency minimization and role balancing via simulated annealing
// (Section V-B, Algorithms 2 and 3).
//
// The objective is Equation (1):
//
//   objective = num_edges + avg_latency + connectivity_penalty
//             + path_penalty + rank_penalty
//
// where each term carries a configurable weight (the paper leaves the
// scaling implicit; defaults below were tuned so that no single term
// dominates at N in the low hundreds):
//   - num_edges: |E| of the overlay — pruning pressure;
//   - avg_latency: mean earliest-arrival latency from the entry set;
//   - connectivity_penalty: per non-leaf node missing successors below
//     f+1, and per non-entry node missing predecessors below f+1;
//   - path_penalty: per node unreachable from the entry set;
//   - rank_penalty: pressure to keep nodes with low accumulated rank
//     (already favored in earlier overlays) away from the root.
//
// Performance architecture (see DESIGN.md "Annealing performance
// architecture"): candidate moves are evaluated in place through
// MoveDelta edit lists and an IncrementalObjective that maintains every
// Eq.-(1) term per link change — O(degree) for the counting terms and a
// dirty-subtree recompute for dissemination latencies — instead of copying
// the overlay and rescoring it from scratch. The chain proposes one move
// per round on one replica and keeps it or reverts it, so the result is a
// pure function of the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "overlay/overlay.hpp"
#include "overlay/robust_tree.hpp"
#include "support/rng.hpp"

namespace hermes::overlay {

struct ObjectiveWeights {
  double edges = 0.05;
  double latency = 1.0;
  double connectivity = 50.0;  // strong: these are hard requirements
  double path = 100.0;
  double rank = 2.0;
};

struct AnnealingParams {
  double initial_temperature = 50.0;
  double min_temperature = 0.05;
  double cooling_rate = 0.97;  // alpha in Algorithm 2
  // Annealing rounds per temperature step.
  std::size_t moves_per_temperature = 8;
  ObjectiveWeights weights;
};

// One candidate move as an edit list. Ops are recorded in the
// order they took effect; revert() walks them backwards, re-inserting
// removed edges at their recorded adjacency positions so the reverted
// overlay is bit-identical to the pre-move one (not merely set-equal).
struct MoveDelta {
  struct Op {
    NodeId parent;
    NodeId child;
    double latency_ms;
    bool add;  // false: removal
    // Adjacency positions at removal time (unused for adds).
    std::uint32_t succ_pos = 0;
    std::uint32_t pred_pos = 0;
  };
  std::vector<Op> ops;
  bool empty() const { return ops.empty(); }
};

// The Eq.-(1) terms in raw (unweighted) form. `rank_penalty` depends only
// on depths and the rank table — annealing moves never touch depths, so it
// is computed once and carried along.
struct ObjectiveComponents {
  std::int64_t edges = 0;
  double latency_sum = 0.0;  // finite dissemination latencies only
  std::int64_t unreachable = 0;
  std::int64_t connectivity_deficit = 0;
  double rank_penalty = 0.0;

  double value(std::size_t node_count, const ObjectiveWeights& w) const;
};

// Exact change of the history-independent terms over one move. The latency
// term is accumulated in a deterministic order (dirty nodes by depth, then
// id), so for a given move on a given structure the delta is bit-identical.
struct ComponentDelta {
  std::int64_t d_edges = 0;
  double d_latency_sum = 0.0;
  std::int64_t d_unreachable = 0;
  std::int64_t d_connectivity = 0;
};

// Overlay replica with incrementally maintained objective components.
// add_link/remove_link update edge count and connectivity deficits in
// O(degree) and buffer latency effects in a dirty set; flush() recomputes
// dissemination latencies for the affected subtree only (edges strictly
// increase depth, so a depth-ordered sweep over dirty nodes is exact).
//
// The dissemination-latency vector is a pure function of the overlay
// structure, so a move and its revert leave value-identical latencies.
class IncrementalObjective {
 public:
  IncrementalObjective(Overlay o, const RankTable& ranks,
                       const ObjectiveWeights& weights);

  const Overlay& overlay() const { return o_; }
  const std::vector<std::vector<NodeId>>& layers() const { return layers_; }
  const ObjectiveComponents& components() const { return comp_; }
  // Earliest-arrival latencies, valid after flush().
  const std::vector<double>& latencies() const { return dist_; }
  double value() const { return comp_.value(o_.node_count(), w_); }

  // In-place link edits. Return false on a no-op (link already present /
  // absent, or an invalid endpoint pairing). Effective edits are appended
  // to *delta when non-null.
  bool add_link(NodeId parent, NodeId child, double latency_ms,
                MoveDelta* delta);
  bool remove_link(NodeId parent, NodeId child, MoveDelta* delta);

  // Folds pending latency changes into the components.
  void flush();

  // Move bracket: begin_move() zeroes the per-move accumulator;
  // take_move_delta() flushes and returns the exact component change since
  // begin_move().
  void begin_move();
  ComponentDelta take_move_delta();

  // Undoes a delta produced by this replica: inverse ops in reverse order.
  void revert(const MoveDelta& delta);

 private:
  void mark_dirty(NodeId v);
  void touch_connectivity(NodeId parent, NodeId child, int direction);

  Overlay o_;
  ObjectiveWeights w_;
  ObjectiveComponents comp_;
  ComponentDelta pending_;  // per-move accumulator
  std::vector<std::vector<NodeId>> layers_;
  std::size_t deepest_ = 0;
  std::vector<double> dist_;
  // Dirty bookkeeping: epoch stamps avoid clearing between flushes.
  std::vector<std::uint64_t> dirty_stamp_;
  std::uint64_t epoch_ = 0;
  std::vector<NodeId> dirty_;
};

// Equation (1). Lower is better. Returns 0 for an empty overlay and stays
// finite when every node is unreachable.
double objective_value(const Overlay& o, const RankTable& ranks,
                       const ObjectiveWeights& weights);
// Scratch computation of all Eq.-(1) terms (the reference the incremental
// path is tested against).
ObjectiveComponents objective_components(const Overlay& o,
                                         const RankTable& ranks);

// One random neighbor move (Algorithm 3): add or remove an edge between
// consecutive layers of G's physical links, then repair f+1-connectivity,
// then push low-rank nodes' excess links toward higher-rank, deeper nodes.
// A repair prefers the cheapest physical link; only when none is left does
// it take a logical link to the nearest eligible node by shortest-path
// latency (same rule as robust-tree integration).
Overlay generate_neighbor(const Overlay& current, const net::Graph& g,
                          const RankTable& ranks, const AnnealingParams& params,
                          Rng& rng);

// Algorithm 2: returns the best overlay found. Deterministic for a fixed
// seed.
Overlay anneal(const Overlay& initial, const net::Graph& g,
               const RankTable& ranks, const AnnealingParams& params, Rng& rng);

}  // namespace hermes::overlay
