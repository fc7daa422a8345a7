#include "overlay/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "support/assert.hpp"

namespace hermes::overlay {

namespace {

double mean_rank(const RankTable& ranks) {
  double mean = 0.0;
  for (double r : ranks) mean += r;
  mean /= static_cast<double>(ranks.empty() ? 1 : ranks.size());
  return mean;
}

// Shared scratch computation over a precomputed latency vector, so the
// incremental path's constructor and objective_components() agree exactly.
ObjectiveComponents components_from(const Overlay& o, const RankTable& ranks,
                                    const std::vector<double>& dist) {
  ObjectiveComponents c;
  const std::size_t n = o.node_count();
  if (n == 0) return c;
  const std::size_t f = o.f();

  c.edges = static_cast<std::int64_t>(o.edge_count());

  for (double d : dist) {
    if (d == net::kInfLatency) {
      ++c.unreachable;
    } else {
      c.latency_sum += d;
    }
  }

  const std::size_t deepest = o.max_depth();
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t d = o.depth(v);
    if (d >= 1 && d < deepest && o.successors(v).size() < f + 1) {
      c.connectivity_deficit +=
          static_cast<std::int64_t>(f + 1 - o.successors(v).size());
    }
    if (d > 1 && o.predecessors(v).size() < f + 1) {
      c.connectivity_deficit +=
          static_cast<std::int64_t>(f + 1 - o.predecessors(v).size());
    }
  }

  // Rank penalty. Ranks accumulate *root proximity* (see robust_tree.cpp):
  // a node with above-average rank has already been favored with near-root
  // positions, so placing it shallow again is penalized, weighted by
  // 1/depth so the pressure is strongest at the root.
  const double mean = mean_rank(ranks);
  for (NodeId v = 0; v < n && v < ranks.size(); ++v) {
    const double excess = ranks[v] - mean;
    if (excess > 0.0 && o.depth(v) >= 1) {
      c.rank_penalty += excess / static_cast<double>(o.depth(v));
    }
  }
  return c;
}

// Repairs the overlay after a random move: every non-last-layer node gets
// back to >= f+1 successors, every non-entry node to >= f+1 predecessors
// (Algorithm 3 step 2, extended to predecessors which the delivery
// guarantee needs). Each link goes to the cheapest physical neighbor in
// the eligible layers; when none is left, a logical link goes to the
// nearest eligible node by shortest-path latency from the deficient node.
// Latency ties go to the lowest id (successors) or to the shallowest
// layer, then the lowest id (predecessors): the order of a scan over the
// layers in depth and id order.
void repair_connectivity(IncrementalObjective& state, const net::Graph& g,
                         net::NearestScratch& search, MoveDelta* delta) {
  const Overlay& o = state.overlay();
  const std::size_t f = o.f();
  const auto& layer_list = state.layers();
  if (layer_list.size() < 2) return;
  const std::size_t deepest = layer_list.size() - 1;
  constexpr NodeId kNone = net::NodeId(-1);

  for (std::size_t d = 1; d < deepest; ++d) {
    for (NodeId v : layer_list[d]) {
      while (o.successors(v).size() < f + 1) {
        // Cheapest next-layer node not already a successor.
        NodeId best = kNone;
        double best_cost = net::kInfLatency;
        for (const net::Edge& e : g.neighbors(v)) {
          if (o.depth(e.to) != d + 1 || o.has_link(v, e.to)) continue;
          if (e.latency_ms < best_cost ||
              (best != kNone && e.latency_ms == best_cost && e.to < best)) {
            best = e.to;
            best_cost = e.latency_ms;
          }
        }
        if (best == kNone) {
          // A search that finds nothing settles the whole graph, so first
          // rule out a next layer that v already links to in full (it does
          // in the deepest layers, which hold a handful of nodes).
          const auto linked = static_cast<std::size_t>(std::count_if(
              o.successors(v).begin(), o.successors(v).end(),
              [&](NodeId c) { return o.depth(c) == d + 1; }));
          if (linked == layer_list[d + 1].size()) break;  // layer exhausted
          const auto& nearest = g.nearest(v, 1, search, [&](NodeId c) {
            return o.depth(c) == d + 1 && !o.has_link(v, c);
          });
          if (nearest.empty()) break;  // the rest is unreachable
          best = nearest.front().to;
          best_cost = nearest.front().latency_ms;
        }
        state.add_link(v, best, best_cost, delta);
      }
    }
  }

  const auto shallower = [&o](NodeId a, NodeId b) {
    return o.depth(a) < o.depth(b) || (o.depth(a) == o.depth(b) && a < b);
  };
  for (std::size_t d = 2; d <= deepest; ++d) {
    for (NodeId v : layer_list[d]) {
      while (o.predecessors(v).size() < f + 1) {
        NodeId best = kNone;
        double best_cost = net::kInfLatency;
        for (const net::Edge& e : g.neighbors(v)) {
          const std::size_t pd = o.depth(e.to);
          if (pd < 1 || pd >= d || o.has_link(e.to, v)) continue;
          if (e.latency_ms < best_cost ||
              (best != kNone && e.latency_ms == best_cost &&
               shallower(e.to, best))) {
            best = e.to;
            best_cost = e.latency_ms;
          }
        }
        if (best == kNone) {
          const auto& nearest = g.nearest(v, 1, search, [&](NodeId p) {
            const std::size_t pd = o.depth(p);
            return pd >= 1 && pd < d && !o.has_link(p, v);
          });
          if (nearest.empty()) break;
          best_cost = nearest.front().latency_ms;
          for (const net::Edge& e : nearest) {
            if (e.latency_ms != best_cost) break;
            if (best == kNone || shallower(e.to, best)) best = e.to;
          }
        }
        state.add_link(best, v, best_cost, delta);
      }
    }
  }
}

// One random neighbor move (Algorithm 3) applied in place, recording every
// effective edit. The caller brackets this with begin_move()/
// take_move_delta()/revert().
MoveDelta generate_move(IncrementalObjective& state, const net::Graph& g,
                        const RankTable& ranks, double mean,
                        net::NearestScratch& search, Rng& rng) {
  MoveDelta delta;
  const Overlay& o = state.overlay();
  const auto& layer_list = state.layers();
  const std::size_t deepest = layer_list.empty() ? 0 : layer_list.size() - 1;
  const std::size_t f = o.f();

  // --- Step 1: randomly add or remove an edge between consecutive layers.
  if (rng.uniform01() < 0.5 && state.components().edges > 0) {
    // Remove one edge chosen uniformly over all edges: parents are hit with
    // probability proportional to out-degree, so high-fanout parents shed
    // edges first.
    std::uint64_t target = rng.uniform_u64(
        static_cast<std::uint64_t>(state.components().edges));
    for (NodeId p = 0; p < o.node_count(); ++p) {
      const std::size_t s = o.successors(p).size();
      if (target < s) {
        const NodeId c = o.successors(p)[target];
        state.remove_link(p, c, &delta);
        break;
      }
      target -= s;
    }
  } else if (deepest >= 2) {
    // Add an edge between consecutive layers.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::size_t d = 1 + rng.uniform_u64(deepest - 1);  // parent layer
      if (layer_list[d].empty() || layer_list[d + 1].empty()) continue;
      const NodeId p = layer_list[d][rng.uniform_u64(layer_list[d].size())];
      const NodeId c =
          layer_list[d + 1][rng.uniform_u64(layer_list[d + 1].size())];
      if (o.has_link(p, c)) continue;
      const auto lat = g.edge_latency(p, c);
      if (!lat) continue;
      state.add_link(p, c, *lat, &delta);
      break;
    }
  }

  // --- Step 2: restore f+1 connectivity.
  repair_connectivity(state, g, search, &delta);

  // --- Step 3: rank-penalty adjustment — nodes sitting near the root with
  // excess edges shed load; children with spare predecessors lose the link
  // from the low-rank node (the repair pass above would re-add elsewhere on
  // later iterations if needed).
  for (std::size_t d = 1; d <= 2 && d < layer_list.size(); ++d) {
    for (NodeId v : layer_list[d]) {
      if (v >= ranks.size() || ranks[v] <= mean) continue;  // not over-favored
      if (o.successors(v).size() <= f + 1) continue;        // no extra edges
      // Drop the link to the child with the most redundancy.
      NodeId victim = net::NodeId(-1);
      std::size_t most_preds = f + 1;
      for (NodeId c : o.successors(v)) {
        if (o.predecessors(c).size() > most_preds) {
          most_preds = o.predecessors(c).size();
          victim = c;
        }
      }
      if (victim != net::NodeId(-1)) state.remove_link(v, victim, &delta);
    }
  }
  return delta;
}

}  // namespace

double ObjectiveComponents::value(std::size_t node_count,
                                  const ObjectiveWeights& w) const {
  if (node_count == 0) return 0.0;
  // Average over reached nodes; when everything is unreachable the clamp
  // keeps the denominator at >= 1 (latency_sum is 0 there anyway).
  const std::size_t unreach = std::min(
      static_cast<std::size_t>(std::max<std::int64_t>(unreachable, 0)),
      node_count - 1);
  const double avg_latency =
      latency_sum / static_cast<double>(node_count - unreach);
  return w.edges * static_cast<double>(edges) + w.latency * avg_latency +
         w.connectivity * static_cast<double>(connectivity_deficit) +
         w.path * static_cast<double>(unreachable) + w.rank * rank_penalty;
}

ObjectiveComponents objective_components(const Overlay& o,
                                         const RankTable& ranks) {
  if (o.node_count() == 0) return {};
  return components_from(o, ranks, o.dissemination_latencies());
}

double objective_value(const Overlay& o, const RankTable& ranks,
                       const ObjectiveWeights& w) {
  return objective_components(o, ranks).value(o.node_count(), w);
}

IncrementalObjective::IncrementalObjective(Overlay o, const RankTable& ranks,
                                           const ObjectiveWeights& weights)
    : o_(std::move(o)),
      w_(weights),
      layers_(o_.layers()),
      deepest_(layers_.size() - 1),
      dist_(o_.dissemination_latencies()),
      dirty_stamp_(o_.node_count(), 0),
      epoch_(1) {
  comp_ = components_from(o_, ranks, dist_);
}

void IncrementalObjective::mark_dirty(NodeId v) {
  if (dirty_stamp_[v] == epoch_) return;
  dirty_stamp_[v] = epoch_;
  dirty_.push_back(v);
}

void IncrementalObjective::touch_connectivity(NodeId parent, NodeId child,
                                              int direction) {
  const std::size_t need = o_.f() + 1;
  std::int64_t d = 0;
  const std::size_t dp = o_.depth(parent);
  if (dp >= 1 && dp < deepest_) {
    // Sizes below are post-edit; the deficit changed iff the pre-edit size
    // was inside the deficit band.
    const std::size_t s = o_.successors(parent).size();
    if (direction > 0 ? s <= need : s < need) d -= direction;
  }
  if (o_.depth(child) > 1) {
    const std::size_t p = o_.predecessors(child).size();
    if (direction > 0 ? p <= need : p < need) d -= direction;
  }
  comp_.connectivity_deficit += d;
  pending_.d_connectivity += d;
}

bool IncrementalObjective::add_link(NodeId parent, NodeId child,
                                    double latency_ms, MoveDelta* delta) {
  if (parent >= o_.node_count() || child >= o_.node_count()) return false;
  const std::size_t dp = o_.depth(parent);
  const std::size_t dc = o_.depth(child);
  if (dp < 1 || dc < 1 || dp >= dc) return false;
  if (o_.has_link(parent, child)) return false;
  o_.add_link(parent, child, latency_ms);
  ++comp_.edges;
  ++pending_.d_edges;
  touch_connectivity(parent, child, +1);
  mark_dirty(child);
  if (delta) delta->ops.push_back({parent, child, latency_ms, true});
  return true;
}

bool IncrementalObjective::remove_link(NodeId parent, NodeId child,
                                       MoveDelta* delta) {
  if (parent >= o_.node_count() || child >= o_.node_count()) return false;
  if (!o_.has_link(parent, child)) return false;
  const double latency_ms = o_.link_latency(parent, child);
  if (delta) {
    const auto& succ = o_.successors(parent);
    const auto& pred = o_.predecessors(child);
    const auto spos = static_cast<std::uint32_t>(
        std::find(succ.begin(), succ.end(), child) - succ.begin());
    const auto ppos = static_cast<std::uint32_t>(
        std::find(pred.begin(), pred.end(), parent) - pred.begin());
    delta->ops.push_back({parent, child, latency_ms, false, spos, ppos});
  }
  o_.remove_link(parent, child);
  --comp_.edges;
  --pending_.d_edges;
  touch_connectivity(parent, child, -1);
  mark_dirty(child);
  return true;
}

void IncrementalObjective::flush() {
  if (dirty_.empty()) return;
  // Depth-ordered exact recompute. Every overlay edge strictly increases
  // depth, so by the time a node is popped all of its predecessors hold
  // final values and dist_[v] can be recomputed as a full min over them.
  // The (depth, id) pop order also fixes the floating-point accumulation
  // order of d_latency_sum, so a move's delta depends on the move alone.
  using QEntry = std::pair<std::size_t, NodeId>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
  for (NodeId v : dirty_) pq.emplace(o_.depth(v), v);
  dirty_.clear();

  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    double nd = 0.0;
    if (!o_.is_entry(v)) {
      nd = net::kInfLatency;
      const auto& preds = o_.predecessors(v);
      const auto& lats = o_.predecessor_latencies(v);
      for (std::size_t i = 0; i < preds.size(); ++i) {
        if (dist_[preds[i]] == net::kInfLatency) continue;
        nd = std::min(nd, dist_[preds[i]] + lats[i]);
      }
    }
    const double od = dist_[v];
    if (nd == od) continue;
    dist_[v] = nd;

    double d_sum = 0.0;
    std::int64_t d_unreach = 0;
    if (od == net::kInfLatency) {
      d_unreach = -1;
      d_sum = nd;
    } else if (nd == net::kInfLatency) {
      d_unreach = 1;
      d_sum = -od;
    } else {
      d_sum = nd - od;
    }
    comp_.latency_sum += d_sum;
    pending_.d_latency_sum += d_sum;
    comp_.unreachable += d_unreach;
    pending_.d_unreachable += d_unreach;

    for (NodeId u : o_.successors(v)) {
      if (dirty_stamp_[u] == epoch_) continue;
      dirty_stamp_[u] = epoch_;
      pq.emplace(o_.depth(u), u);
    }
  }
  ++epoch_;
}

void IncrementalObjective::begin_move() { pending_ = ComponentDelta{}; }

ComponentDelta IncrementalObjective::take_move_delta() {
  flush();
  return pending_;
}

void IncrementalObjective::revert(const MoveDelta& delta) {
  for (auto it = delta.ops.rbegin(); it != delta.ops.rend(); ++it) {
    if (it->add) {
      // Undoing in reverse order means the overlay is in the state just
      // after this op, where the added edge sits at the back of both
      // adjacency lists — plain removal restores them exactly.
      remove_link(it->parent, it->child, nullptr);
    } else {
      // Re-insert at the recorded positions, not at the back: iteration
      // order over these vectors feeds candidate generation.
      o_.insert_link(it->parent, it->child, it->latency_ms, it->succ_pos,
                     it->pred_pos);
      ++comp_.edges;
      ++pending_.d_edges;
      touch_connectivity(it->parent, it->child, +1);
      mark_dirty(it->child);
    }
  }
  flush();
}

Overlay generate_neighbor(const Overlay& current, const net::Graph& g,
                          const RankTable& ranks, const AnnealingParams& params,
                          Rng& rng) {
  IncrementalObjective state(current, ranks, params.weights);
  net::NearestScratch search;
  state.begin_move();
  generate_move(state, g, ranks, mean_rank(ranks), search, rng);
  state.flush();
  return state.overlay();
}

Overlay anneal(const Overlay& initial, const net::Graph& g,
               const RankTable& ranks, const AnnealingParams& params,
               Rng& rng) {
  const std::size_t n = initial.node_count();
  if (n == 0) return initial;

  const double mean = mean_rank(ranks);
  IncrementalObjective state(initial, ranks, params.weights);
  net::NearestScratch search;

  // The chain's components live outside the replica and only ever absorb
  // accepted ComponentDeltas: the replica's running latency sum drifts in
  // the last bits over move/revert cycles, and that drift never reaches an
  // acceptance decision.
  ObjectiveComponents current = state.components();
  double current_value = current.value(n, params.weights);
  Overlay best = initial;
  double best_value = current_value;

  double t = params.initial_temperature;
  while (t > params.min_temperature) {
    for (std::size_t move = 0; move < params.moves_per_temperature; ++move) {
      // Each move draws from its own fork of the chain rng.
      Rng move_rng = rng.fork(1);
      state.begin_move();
      const MoveDelta delta =
          generate_move(state, g, ranks, mean, search, move_rng);
      const ComponentDelta d = state.take_move_delta();
      if (delta.empty()) continue;
      ObjectiveComponents next = current;
      next.edges += d.d_edges;
      next.latency_sum += d.d_latency_sum;
      next.unreachable += d.d_unreachable;
      next.connectivity_deficit += d.d_connectivity;
      const double next_value = next.value(n, params.weights);
      const bool accept =
          next_value < current_value ||
          std::exp(-(next_value - current_value) / t) > move_rng.uniform01();
      if (!accept) {
        state.revert(delta);
        continue;
      }
      current = next;
      current_value = next_value;
      if (current_value < best_value) {
        best_value = current_value;
        best = state.overlay();
      }
    }
    t *= params.cooling_rate;
  }
  return best;
}

}  // namespace hermes::overlay
