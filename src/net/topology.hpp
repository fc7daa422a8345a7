// Physical network synthesis following the paper's experimental setup
// (Section VIII-A): nodes spread over nine geographic regions, intra-region
// latency drawn from an inverse-gamma distribution (alpha = 2.5, beta = 14)
// and inter-region latency from a normal distribution (mu = 90 ms,
// sigma^2 = 20), truncated at a small positive floor.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "net/graph.hpp"
#include "support/rng.hpp"

namespace hermes::net {

enum class Region : std::uint8_t {
  kNewYork,
  kSingapore,
  kFrankfurt,
  kSydney,
  kTokyo,
  kIreland,
  kOhio,
  kCalifornia,
  kLondon,
};
inline constexpr std::size_t kRegionCount = 9;
std::string_view region_name(Region r);

// The paper's latency model. Every reader (topology edges, the network's
// keyed pair latencies and engine lookahead, overlay families) shares it.
inline constexpr double kIntraAlpha = 2.5;        // inverse-gamma shape
inline constexpr double kIntraBeta = 14.0;        // inverse-gamma scale
inline constexpr double kInterMeanMs = 90.0;
inline constexpr double kInterVariance = 20.0;    // ms^2
inline constexpr double kLatencyFloorMs = 0.1;    // lower bound on any link

// Samples one link latency given the endpoint regions.
double sample_latency(Region a, Region b, Rng& rng);

struct TopologyParams {
  std::size_t node_count = 200;
  // Each node is wired to at least this many random peers; ring chords
  // (add_ring_chords) then make the graph `connectivity`-vertex-connected
  // by construction (Section III assumes t disjoint paths to every node).
  std::size_t min_degree = 6;
  std::size_t connectivity = 2;  // t
  // Probability that a random peer is drawn from the same region.
  double locality_bias = 0.5;
};

struct Topology {
  Graph graph;
  std::vector<Region> regions;  // node -> region
};

// Deterministic synthesis given the rng seed.
Topology make_topology(const TopologyParams& params, Rng& rng);

// Adds the edges {order[i], order[(i + d) % n]} for d = 1..strides, stride
// by stride and position by position, skipping self-loops and edges already
// present, with latency(a, b) called once per added edge. With `order` a
// permutation of g's n nodes, g then contains the Harary graph
// H(2 * strides, n), or K_n once 2 * strides >= n - 1, so it is
// min(2 * strides, n - 1)-vertex-connected (F. Harary, "The maximum
// connectivity of a graph", PNAS 1962).
void add_ring_chords(Graph& g, std::span<const NodeId> order,
                     std::size_t strides,
                     const std::function<double(NodeId, NodeId)>& latency);

// ceil(t/2), and at least 1 so the ring is always laid: the strides at which
// add_ring_chords makes a graph of more than t nodes t-vertex-connected.
std::size_t ring_strides(std::size_t t);

}  // namespace hermes::net
