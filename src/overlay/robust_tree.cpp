#include "overlay/robust_tree.hpp"

#include <algorithm>
#include <limits>

#include "support/assert.hpp"

namespace hermes::overlay {

namespace {

double avg_neighbor_latency(const net::Graph& g, NodeId v) {
  const auto& nbrs = g.neighbors(v);
  if (nbrs.empty()) return net::kInfLatency;
  double total = 0.0;
  for (const auto& e : nbrs) total += e.latency_ms;
  return total / static_cast<double>(nbrs.size());
}

// Candidate ordering used throughout Algorithm 1: lowest accumulated rank
// first, then lowest latency, then id for determinism.
struct Candidate {
  NodeId node;
  double rank;
  double latency;
  bool operator<(const Candidate& o) const {
    if (rank != o.rank) return rank < o.rank;
    if (latency != o.latency) return latency < o.latency;
    return node < o.node;
  }
};

}  // namespace

Overlay build_robust_tree(const net::Graph& g, std::size_t f,
                          RankTable& ranks) {
  const std::size_t n = g.node_count();
  HERMES_REQUIRE(n >= f + 2);
  HERMES_REQUIRE(ranks.size() == n);

  Overlay overlay(n, f);
  std::vector<bool> placed(n, false);

  // --- Entry points: f+1 nodes with lowest accumulated rank, lowest
  // average latency to their physical neighbors (Alg. 1 lines 3-6).
  {
    std::vector<Candidate> cands;
    cands.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      cands.push_back({v, ranks[v], avg_neighbor_latency(g, v)});
    }
    std::sort(cands.begin(), cands.end());
    for (std::size_t i = 0; i <= f; ++i) {
      overlay.add_entry_point(cands[i].node);
      placed[cands[i].node] = true;
    }
  }

  // --- Layer doubling (Alg. 1 lines 8-15): at depth d, pick up to
  // 2^(d-1) * (f+1) unplaced nodes connected in G to ALL nodes of the
  // previous layer.
  std::vector<NodeId> prev_layer = overlay.entry_points();
  std::size_t d = 2;
  while (!prev_layer.empty()) {
    std::vector<Candidate> cands;
    for (NodeId v = 0; v < n; ++v) {
      if (placed[v]) continue;
      bool connected_to_all = true;
      double latency_sum = 0.0;
      for (NodeId p : prev_layer) {
        const auto lat = g.edge_latency(v, p);
        if (!lat) {
          connected_to_all = false;
          break;
        }
        latency_sum += *lat;
      }
      if (connected_to_all) {
        cands.push_back(
            {v, ranks[v], latency_sum / static_cast<double>(prev_layer.size())});
      }
    }
    // A layer smaller than f+1 would leave the next layer's children with
    // fewer than f+1 predecessors; stop doubling and let the
    // missing-node integration place the rest with explicit f+1 links.
    if (cands.size() < f + 1) break;
    std::sort(cands.begin(), cands.end());
    // Budget 2^(d-1) * (f+1): entries are depth 1 with (f+1) = 2^0*(f+1).
    const std::size_t budget = (std::size_t{1} << (d - 1)) * (f + 1);
    if (cands.size() > budget) cands.resize(budget);

    std::vector<NodeId> this_layer;
    for (const Candidate& c : cands) {
      overlay.set_depth(c.node, d);
      placed[c.node] = true;
      for (NodeId p : prev_layer) {
        overlay.add_link(p, c.node, *g.edge_latency(p, c.node));
      }
      this_layer.push_back(c.node);
    }
    prev_layer = std::move(this_layer);
    ++d;
  }

  // --- Missing nodes (Alg. 1 lines 17-21): attach every remaining node
  // with f+1 edges to nodes already in the overlay. Multiple passes let a
  // node whose physical neighbors were themselves missing join later.
  net::NearestScratch search;
  auto attach = [&](NodeId v, bool allow_logical) -> bool {
    // Physical candidates already in the overlay, cheapest links first.
    std::vector<Candidate> parents;
    for (const auto& e : g.neighbors(v)) {
      if (placed[e.to]) parents.push_back({e.to, ranks[e.to], e.latency_ms});
    }
    std::sort(parents.begin(), parents.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.latency < b.latency || (a.latency == b.latency && a.node < b.node);
              });
    std::vector<std::pair<NodeId, double>> chosen;
    for (const Candidate& c : parents) {
      if (chosen.size() == f + 1) break;
      chosen.emplace_back(c.node, c.latency);
    }
    if (chosen.size() < f + 1) {
      if (!allow_logical) return false;
      // Logical links over multi-hop paths: nearest placed nodes by
      // physical shortest-path latency, ties to the lower id.
      const std::size_t missing = f + 1 - chosen.size();
      const auto& logical = g.nearest(v, missing, search, [&](NodeId u) {
        return placed[u] &&
               std::none_of(chosen.begin(), chosen.end(),
                            [u](const auto& cu) { return cu.first == u; });
      });
      if (logical.size() < missing) return false;
      for (std::size_t i = 0; i < missing; ++i) {
        chosen.emplace_back(logical[i].to, logical[i].latency_ms);
      }
    }
    std::size_t depth = 0;
    for (const auto& [p, lat] : chosen) depth = std::max(depth, overlay.depth(p));
    overlay.set_depth(v, depth + 1);
    placed[v] = true;
    for (const auto& [p, lat] : chosen) overlay.add_link(p, v, lat);
    return true;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<Candidate> remaining;
    for (NodeId v = 0; v < n; ++v) {
      if (!placed[v]) remaining.push_back({v, ranks[v], avg_neighbor_latency(g, v)});
    }
    std::sort(remaining.begin(), remaining.end());
    for (const Candidate& c : remaining) {
      if (attach(c.node, /*allow_logical=*/false)) progress = true;
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!placed[v]) {
      const bool ok = attach(v, /*allow_logical=*/true);
      HERMES_REQUIRE(ok && "physical graph too disconnected to integrate node");
    }
  }

  // --- Rank update (Alg. 1 lines 22-24). The paper's literal update
  // (rank += depth) combined with its "lowest accumulated rank becomes an
  // entry point" selection rule would re-elect the same entry points in
  // every tree, contradicting the role-rotation narrative of Section V-B
  // ("higher accumulated ranks ... preferable candidates for near-root
  // positions"). We therefore accumulate *root proximity* — how favored
  // the node has been so far — so that the minimal-rank selection rule
  // rotates roles exactly as Section V-B and Figure 4 describe.
  const double max_depth = static_cast<double>(overlay.max_depth());
  for (NodeId v = 0; v < n; ++v) {
    ranks[v] += max_depth - static_cast<double>(overlay.depth(v)) + 1.0;
  }
  return overlay;
}

}  // namespace hermes::overlay
