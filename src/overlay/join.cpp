#include "overlay/join.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace hermes::overlay {

namespace {

// Cheapest link cost from p to v: physical edge, else shortest path (same
// preference order as repair.cpp). The single-source row is computed from
// the joiner's side at most once per call.
double link_cost(const net::Graph& g, NodeId p, NodeId v,
                 std::vector<double>* sp_cache) {
  if (const auto lat = g.edge_latency(p, v)) return *lat;
  if (sp_cache->empty()) *sp_cache = g.shortest_latencies(v);
  return (*sp_cache)[p];
}

struct Candidate {
  bool overloaded = false;
  double cost = net::kInfLatency;
  NodeId id = 0;

  bool operator<(const Candidate& other) const {
    if (overloaded != other.overloaded) return other.overloaded;
    if (cost != other.cost) return cost < other.cost;
    return id < other.id;
  }
};

}  // namespace

std::size_t join_out_degree_cap(std::size_t f) {
  return std::max<std::size_t>(4, 2 * (f + 1));
}

JoinPlacementResult attach_node_locally(Overlay& o, NodeId joiner,
                                        const net::Graph& g,
                                        const ObjectiveWeights& weights) {
  JoinPlacementResult result;
  if (joiner >= o.node_count()) return result;
  if (o.depth(joiner) != 0 || !o.successors(joiner).empty() ||
      !o.predecessors(joiner).empty()) {
    return result;  // already placed: nothing to attach
  }

  const std::size_t f = o.f();
  const std::size_t need = f + 1;
  const std::size_t cap = join_out_degree_cap(f);
  const std::size_t deepest = o.max_depth();
  if (deepest == 0) return result;  // no entry layer to hang below

  // Earliest arrival of every placed node; one linear-in-E sweep shared by
  // all candidate depths — the per-depth objective delta below is O(degree).
  const std::vector<double> arrival = o.dissemination_latencies();
  // Current latency-term state: Eq. (1) averages over reached nodes, so an
  // attachment moves both the sum (the joiner's arrival) and the
  // denominator (one node leaves the unreachable set).
  double latency_sum = 0.0;
  std::int64_t unreach = 0;
  for (NodeId v = 0; v < o.node_count(); ++v) {
    if (arrival[v] >= net::kInfLatency) {
      ++unreach;
    } else {
      latency_sum += arrival[v];
    }
  }
  // Average over reached nodes with the same >=1 denominator clamp as
  // ObjectiveComponents::value, so reported deltas match it exactly.
  const auto avg_latency = [&o](double sum, std::int64_t u) {
    const auto clamped = std::min<std::int64_t>(
        std::max<std::int64_t>(u, 0),
        static_cast<std::int64_t>(o.node_count()) - 1);
    return sum / static_cast<double>(o.node_count() -
                                     static_cast<std::size_t>(clamped));
  };

  // Successor shortfall of a node at depth dp with succ_count successors
  // when the deepest layer sits at `deep` (interior nodes owe f+1
  // successors; the deepest layer and entries owe none).
  const auto shortfall = [need](std::size_t succ_count, std::size_t dp,
                                std::size_t deep) -> std::int64_t {
    if (dp < 1 || dp >= deep || succ_count >= need) return 0;
    return static_cast<std::int64_t>(need - succ_count);
  };
  // Aggregate shortfall the current deepest layer would owe if the joiner
  // extended the tree by one level (turning that layer interior). One O(n)
  // sweep shared by all candidate depths.
  std::int64_t deepest_shortfall = 0;
  for (NodeId v = 0; v < o.node_count(); ++v) {
    if (v != joiner && o.depth(v) == deepest) {
      deepest_shortfall += shortfall(o.successors(v).size(), deepest,
                                     deepest + 1);
    }
  }

  std::vector<double> sp_cache;  // lazily filled single-source row

  // Candidate predecessors at depth d are all placed nodes shallower than
  // d. Depths are tried shallow-to-deep; ties on the objective delta keep
  // the shallowest placement (lower latency for the joiner's own children
  // if it later relays).
  std::size_t best_depth = 0;
  double best_delta = std::numeric_limits<double>::infinity();
  std::vector<Candidate> best_preds;

  std::vector<Candidate> pool;
  for (std::size_t d = 2; d <= deepest + 1; ++d) {
    pool.clear();
    for (NodeId p = 0; p < o.node_count(); ++p) {
      if (p == joiner) continue;
      const std::size_t pd = o.depth(p);
      if (pd == 0 || pd >= d) continue;
      if (arrival[p] >= net::kInfLatency) continue;  // unreachable parent
      Candidate c;
      c.id = p;
      c.overloaded = o.successors(p).size() >= cap;
      c.cost = link_cost(g, p, joiner, &sp_cache);
      if (c.cost >= net::kInfLatency) continue;
      pool.push_back(c);
    }
    if (pool.size() < need) continue;
    std::sort(pool.begin(), pool.end());
    pool.resize(need);

    double join_arrival = net::kInfLatency;
    for (const Candidate& c : pool) {
      join_arrival = std::min(join_arrival, arrival[c.id] + c.cost);
    }
    // Exact Eq.-(1) delta of this attachment (rank-free terms): f+1 new
    // edges, the reached-average latency change, the unreachable credit
    // (the joiner was unplaced, hence unreachable), and the
    // connectivity-deficit change. The predecessor side is satisfied by
    // construction (f+1 reachable parents); the successor side charges the
    // joiner when it lands interior, credits parents that were short, and
    // charges the old deepest layer when the placement extends the tree by
    // a level.
    const std::size_t new_deepest = std::max(deepest, d);
    std::int64_t d_conn = shortfall(0, d, new_deepest);
    if (d == deepest + 1) d_conn += deepest_shortfall;
    for (const Candidate& c : pool) {
      const std::size_t pd = o.depth(c.id);
      const std::size_t sc = o.successors(c.id).size();
      d_conn += shortfall(sc + 1, pd, new_deepest) - shortfall(sc, pd, deepest);
      if (d == deepest + 1 && pd == deepest) {
        // Already counted (pre-gain) inside deepest_shortfall.
        d_conn -= shortfall(sc, pd, new_deepest);
      }
    }
    const double obj_delta =
        weights.edges * static_cast<double>(need) +
        weights.latency * (avg_latency(latency_sum + join_arrival, unreach - 1) -
                           avg_latency(latency_sum, unreach)) -
        weights.path +
        weights.connectivity * static_cast<double>(d_conn);
    if (obj_delta < best_delta) {
      best_delta = obj_delta;
      best_depth = d;
      best_preds = pool;
    }
  }

  if (best_depth == 0) return result;  // no depth offers f+1 parents

  // Canonical application order: ascending parent id (the selection above
  // is already deterministic; a fixed add order keeps the adjacency vectors
  // byte-identical across replicas regardless of sort internals).
  std::sort(best_preds.begin(), best_preds.end(),
            [](const Candidate& a, const Candidate& b) { return a.id < b.id; });
  o.set_depth(joiner, best_depth);
  for (const Candidate& c : best_preds) {
    o.add_link(c.id, joiner, c.cost);
    ++result.links_added;
  }
  result.ok = true;
  result.depth = best_depth;
  result.objective_delta = best_delta;
  return result;
}

}  // namespace hermes::overlay
