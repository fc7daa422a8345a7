#include "net/topology.hpp"

#include <algorithm>
#include <cmath>

namespace hermes::net {

std::string_view region_name(Region r) {
  switch (r) {
    case Region::kNewYork: return "new-york";
    case Region::kSingapore: return "singapore";
    case Region::kFrankfurt: return "frankfurt";
    case Region::kSydney: return "sydney";
    case Region::kTokyo: return "tokyo";
    case Region::kIreland: return "ireland";
    case Region::kOhio: return "ohio";
    case Region::kCalifornia: return "california";
    case Region::kLondon: return "london";
  }
  return "unknown";
}

double sample_latency(Region a, Region b, Rng& rng) {
  const double lat = a == b
                         ? rng.inverse_gamma(kIntraAlpha, kIntraBeta)
                         : rng.normal(kInterMeanMs, std::sqrt(kInterVariance));
  return std::max(lat, kLatencyFloorMs);
}

void add_ring_chords(Graph& g, std::span<const NodeId> order,
                     std::size_t strides,
                     const std::function<double(NodeId, NodeId)>& latency) {
  const std::size_t n = order.size();
  for (std::size_t stride = 1; stride <= strides; ++stride) {
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId a = order[i];
      const NodeId b = order[(i + stride) % n];
      if (a != b && !g.has_edge(a, b)) g.add_edge(a, b, latency(a, b));
    }
  }
}

std::size_t ring_strides(std::size_t t) {
  return std::max<std::size_t>(1, (t + 1) / 2);
}

Topology make_topology(const TopologyParams& params, Rng& rng) {
  HERMES_REQUIRE(params.node_count >= 2);

  Topology topo;
  topo.graph = Graph(params.node_count);
  topo.regions.resize(params.node_count);

  // Round-robin region assignment keeps region sizes balanced; shuffling
  // the order decorrelates node ids from regions.
  std::vector<std::size_t> order(params.node_count);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t i = 0; i < order.size(); ++i) {
    topo.regions[order[i]] = static_cast<Region>(i % kRegionCount);
  }

  // Bucket nodes per region for locality-biased peer sampling.
  std::array<std::vector<NodeId>, kRegionCount> by_region;
  for (NodeId v = 0; v < params.node_count; ++v) {
    by_region[static_cast<std::size_t>(topo.regions[v])].push_back(v);
  }

  const auto latency = [&](NodeId a, NodeId b) {
    return sample_latency(topo.regions[a], topo.regions[b], rng);
  };

  // Phase 1: locality-biased random wiring up to min_degree.
  for (NodeId v = 0; v < params.node_count; ++v) {
    std::size_t guard = 0;
    while (topo.graph.degree(v) < params.min_degree &&
           guard++ < params.node_count * 4) {
      NodeId peer;
      const auto& local = by_region[static_cast<std::size_t>(topo.regions[v])];
      if (local.size() > 1 && rng.bernoulli(params.locality_bias)) {
        peer = local[rng.uniform_u64(local.size())];
      } else {
        peer = static_cast<NodeId>(rng.uniform_u64(params.node_count));
      }
      if (peer != v && !topo.graph.has_edge(v, peer)) {
        topo.graph.add_edge(v, peer, latency(v, peer));
      }
    }
  }

  // Phase 2: a ring over a random permutation with chords up to
  // ring_strides(t) is t-vertex-connected whatever the random wiring above.
  std::vector<NodeId> ring(params.node_count);
  for (std::size_t i = 0; i < ring.size(); ++i) ring[i] = static_cast<NodeId>(i);
  rng.shuffle(ring);
  add_ring_chords(topo.graph, ring, ring_strides(params.connectivity), latency);
  return topo;
}

}  // namespace hermes::net
