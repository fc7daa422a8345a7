#include "overlay/repair.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace hermes::overlay {

namespace {

// Cheapest link cost from p to v: physical edge, else shortest path.
double link_cost(const net::Graph& g, NodeId p, NodeId v,
                 std::vector<double>* sp_cache) {
  if (const auto lat = g.edge_latency(p, v)) return *lat;
  if (sp_cache->empty()) *sp_cache = g.shortest_latencies(v);
  return (*sp_cache)[p];
}

}  // namespace

LocalRepairResult remove_node_locally(Overlay& o, NodeId departed,
                                      const net::Graph& g) {
  LocalRepairResult result;
  const std::size_t f = o.f();
  Overlay backup = o;

  const bool was_entry = o.is_entry(departed);
  const std::vector<NodeId> children = o.successors(departed);
  const std::vector<NodeId> parents = o.predecessors(departed);

  // Detach the departed node entirely.
  for (NodeId c : children) {
    o.remove_link(departed, c);
    ++result.links_removed;
  }
  for (NodeId p : parents) {
    o.remove_link(p, departed);
    ++result.links_removed;
  }

  // Entry replacement: promote the depth-2 node with the most remaining
  // predecessors (least repair fallout) to the entry layer.
  if (was_entry) {
    const auto layers = o.layers();
    NodeId promoted = net::NodeId(-1);
    std::size_t best_preds = 0;
    if (layers.size() > 2) {
      for (NodeId v : layers[2]) {
        if (v == departed) continue;
        if (o.predecessors(v).size() >= best_preds) {
          best_preds = o.predecessors(v).size();
          promoted = v;
        }
      }
    }
    if (promoted == net::NodeId(-1)) {
      o = std::move(backup);
      return result;  // nothing to promote: give up, caller rebuilds
    }
    for (NodeId p : std::vector<NodeId>(o.predecessors(promoted))) {
      o.remove_link(p, promoted);
      ++result.links_removed;
    }
    o.set_depth(promoted, 1);
    o.add_entry_point(promoted);
    result.promoted_entry = true;
  }

  if (was_entry) o.remove_entry_point(departed);

  // Mark the departed node unplaced; orphaned children are topped back up
  // to f+1 predecessors with the cheapest shallower nodes.
  o.set_depth(departed, 0);

  // Collect every node that may now be short of predecessors: the departed
  // node's children plus (after a promotion) the promoted node's previous
  // dependants are already covered by the generic pass below.
  const auto layers = o.layers();
  for (std::size_t d = 2; d < layers.size(); ++d) {
    for (NodeId v : layers[d]) {
      while (o.predecessors(v).size() < f + 1) {
        NodeId best = net::NodeId(-1);
        double best_cost = net::kInfLatency;
        std::vector<double> sp_cache;
        for (std::size_t pd = 1; pd < d; ++pd) {
          for (NodeId p : layers[pd]) {
            if (p == departed || p == v || o.has_link(p, v)) continue;
            const double cost = link_cost(g, p, v, &sp_cache);
            if (cost < best_cost) {
              best_cost = cost;
              best = p;
            }
          }
        }
        if (best == net::NodeId(-1)) {
          o = std::move(backup);
          return result;  // cannot satisfy f+1: local repair impossible
        }
        o.add_link(best, v, best_cost);
        ++result.links_added;
      }
    }
  }

  result.ok = true;
  return result;
}

std::vector<std::string> validate_with_absent(const Overlay& o,
                                              std::span<const NodeId> absent) {
  auto is_absent = [&](NodeId v) {
    return std::find(absent.begin(), absent.end(), v) != absent.end();
  };
  std::vector<std::string> errors;
  for (const std::string& error : o.validate()) {
    // Filter complaints that only concern absent nodes ("node <id> ...").
    bool about_absent = false;
    for (NodeId v : absent) {
      const std::string needle = "node " + std::to_string(v) + " ";
      if (error.find(needle) != std::string::npos) {
        about_absent = true;
        break;
      }
    }
    if (!about_absent) errors.push_back(error);
  }
  // Absent nodes must be fully detached.
  for (NodeId v : absent) {
    if (!o.successors(v).empty() || !o.predecessors(v).empty()) {
      errors.push_back("absent node " + std::to_string(v) + " still linked");
    }
  }
  (void)is_absent;
  return errors;
}

}  // namespace hermes::overlay
