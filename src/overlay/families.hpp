// The overlay families compared in Figure 2: f+1-connected chordal rings,
// hypercubes, random f+1-connected graphs — and helpers to measure the
// dissemination latency and per-node message load of any overlay instance
// under flood dissemination.
//
// Every family is (f+1)-vertex-connected by construction at any n, most
// through net::add_ring_chords; net/connectivity.hpp is the tests' oracle.
// These families are undirected; messages flood (every node forwards the
// first copy it receives to all neighbors). Robust trees are directed and
// flood along successor links; see overlay/robust_tree.hpp.
#pragma once

#include <vector>

#include "net/graph.hpp"
#include "net/topology.hpp"
#include "overlay/overlay.hpp"
#include "support/rng.hpp"

namespace hermes::overlay {

// Ring 0-1-...-n-1-0 plus chord strides 2..ceil((f+1)/2)+1, giving vertex
// connectivity >= f+1. Latencies are sampled from the latency model using
// the node regions in `topo`.
net::Graph make_chordal_ring(const net::Topology& topo, std::size_t f, Rng& rng);

// Incomplete hypercube: node i links to i ^ (1 << b) for every bit b where
// the peer id is < n, plus the ring 0-1-...-n-1-0 with chord strides
// 2..ceil((f+1)/2), which keeps non-power-of-two tails f+1 connected.
net::Graph make_hypercube(const net::Topology& topo, std::size_t f, Rng& rng);

// Random graph: random edges up to degree f+1, plus a ring over a shuffled
// node order with chord strides 2..ceil((f+1)/2).
net::Graph make_random_connected(const net::Topology& topo, std::size_t f,
                                 Rng& rng);

// k-diamond (Section II's k-connected topology list): nodes arranged in
// consecutive bands of f+1; every node connects to all nodes of the
// neighboring bands (a chain of K_{f+1,f+1} bicliques, closed into a ring
// of bands), giving vertex connectivity >= f+1 with diameter ~ n/(f+1).
net::Graph make_k_diamond(const net::Topology& topo, std::size_t f, Rng& rng);

// f+1 pasted spanning trees (Wen et al.'s k-vertex-connected spanning
// subgraph idea): the union of f+1 random-rooted low-latency spanning
// trees over the physical graph, plus a ring over a shuffled node order
// with chord strides 2..ceil((f+1)/2).
net::Graph make_pasted_trees(const net::Topology& topo, std::size_t f, Rng& rng);

// Flood metrics over an undirected overlay: source sends to all neighbors,
// every node forwards its first copy to all neighbors except the one it
// came from.
struct FloodMetrics {
  std::vector<double> arrival_ms;        // per node (source = 0)
  std::vector<double> messages_sent;     // per node
  double avg_latency = 0.0;
  double load_stddev = 0.0;
  double reached_fraction = 0.0;
};
FloodMetrics measure_flood(const net::Graph& g, net::NodeId source);

// Flood metrics over a directed overlay, injecting simultaneously at all
// entry points (how HERMES disseminates).
FloodMetrics measure_overlay_flood(const Overlay& o);

}  // namespace hermes::overlay
