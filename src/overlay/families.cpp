#include "overlay/families.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>

#include "support/assert.hpp"
#include "support/stats.hpp"

namespace hermes::overlay {

namespace {

net::Graph empty_like(const net::Topology& topo) {
  return net::Graph(topo.graph.node_count());
}

double sample_latency(const net::Topology& topo, net::NodeId a, net::NodeId b,
                      Rng& rng) {
  // Reuse the physical edge latency when one exists; otherwise sample from
  // the region model, as overlay links ride whatever path the underlay has.
  if (const auto lat = topo.graph.edge_latency(a, b)) return *lat;
  return net::sample_latency(topo.regions[a], topo.regions[b], rng);
}

enum class RingOrder { kById, kShuffled };

// net::add_ring_chords over node ids 0..n-1, with overlay link latencies.
void add_ring(net::Graph& g, const net::Topology& topo, RingOrder ring_order,
              std::size_t strides, Rng& rng) {
  std::vector<net::NodeId> order(g.node_count());
  std::iota(order.begin(), order.end(), net::NodeId{0});
  if (ring_order == RingOrder::kShuffled) rng.shuffle(order);
  net::add_ring_chords(g, order, strides, [&](net::NodeId a, net::NodeId b) {
    return sample_latency(topo, a, b, rng);
  });
}

}  // namespace

net::Graph make_chordal_ring(const net::Topology& topo, std::size_t f, Rng& rng) {
  const std::size_t n = topo.graph.node_count();
  HERMES_REQUIRE(n >= f + 2);
  net::Graph g = empty_like(topo);
  add_ring(g, topo, RingOrder::kById, net::ring_strides(f + 1) + 1, rng);
  return g;
}

net::Graph make_hypercube(const net::Topology& topo, std::size_t f, Rng& rng) {
  const std::size_t n = topo.graph.node_count();
  HERMES_REQUIRE(n >= f + 2);
  net::Graph g = empty_like(topo);
  std::size_t dims = 0;
  while ((std::size_t{1} << dims) < n) ++dims;
  for (net::NodeId v = 0; v < n; ++v) {
    for (std::size_t b = 0; b < dims; ++b) {
      const auto u = static_cast<net::NodeId>(v ^ (std::size_t{1} << b));
      if (v < u && u < n) g.add_edge(v, u, sample_latency(topo, v, u, rng));
    }
  }
  // Non-power-of-two tails can be thin; the ring keeps it (f+1)-connected.
  add_ring(g, topo, RingOrder::kById, net::ring_strides(f + 1), rng);
  return g;
}

net::Graph make_random_connected(const net::Topology& topo, std::size_t f,
                                 Rng& rng) {
  const std::size_t n = topo.graph.node_count();
  HERMES_REQUIRE(n >= f + 2);
  net::Graph g = empty_like(topo);

  // Random wiring to degree ~ f+1.
  for (net::NodeId v = 0; v < n; ++v) {
    std::size_t guard = 0;
    while (g.degree(v) < f + 1 && guard++ < 4 * n) {
      const net::NodeId u = static_cast<net::NodeId>(rng.uniform_u64(n));
      if (u != v && !g.has_edge(v, u)) {
        g.add_edge(v, u, sample_latency(topo, v, u, rng));
      }
    }
  }
  // A shuffled ring with chords makes it (f+1)-connected.
  add_ring(g, topo, RingOrder::kShuffled, net::ring_strides(f + 1), rng);
  return g;
}

net::Graph make_k_diamond(const net::Topology& topo, std::size_t f, Rng& rng) {
  const std::size_t n = topo.graph.node_count();
  HERMES_REQUIRE(n >= 2 * (f + 1));
  net::Graph g = empty_like(topo);
  const std::size_t band = f + 1;
  const std::size_t bands = (n + band - 1) / band;
  auto members = [&](std::size_t b) {
    std::vector<net::NodeId> out;
    for (std::size_t i = b * band; i < std::min(n, (b + 1) * band); ++i) {
      out.push_back(static_cast<net::NodeId>(i));
    }
    return out;
  };
  for (std::size_t b = 0; b < bands; ++b) {
    const auto cur = members(b);
    const auto next = members((b + 1) % bands);
    for (net::NodeId a : cur) {
      for (net::NodeId c : next) {
        if (a != c && !g.has_edge(a, c)) {
          g.add_edge(a, c, sample_latency(topo, a, c, rng));
        }
      }
    }
  }
  // A short final band (< f+1 members) thins the cut; a ring of chords
  // restores the connectivity floor.
  if (n % band != 0) {
    add_ring(g, topo, RingOrder::kById, net::ring_strides(f + 1), rng);
  }
  return g;
}

net::Graph make_pasted_trees(const net::Topology& topo, std::size_t f, Rng& rng) {
  const std::size_t n = topo.graph.node_count();
  HERMES_REQUIRE(n >= f + 2);
  net::Graph g = empty_like(topo);

  // f+1 randomized low-latency spanning trees of the physical graph
  // (randomized Prim: grow from a random root, always attach the cheapest
  // frontier edge among a random sample).
  for (std::size_t t = 0; t <= f; ++t) {
    const net::NodeId root = static_cast<net::NodeId>(rng.uniform_u64(n));
    std::vector<bool> in_tree(n, false);
    in_tree[root] = true;
    std::size_t joined = 1;
    // Frontier edges (from, to, latency) with `to` outside the tree.
    std::vector<std::tuple<net::NodeId, net::NodeId, double>> frontier;
    auto push_edges = [&](net::NodeId v) {
      for (const net::Edge& e : topo.graph.neighbors(v)) {
        if (!in_tree[e.to]) frontier.emplace_back(v, e.to, e.latency_ms);
      }
    };
    push_edges(root);
    while (joined < n && !frontier.empty()) {
      // Random sample of the frontier, cheapest wins: different trees pick
      // different edges, so their union is well-connected.
      std::size_t best = rng.uniform_u64(frontier.size());
      for (int probe = 0; probe < 4; ++probe) {
        const std::size_t cand = rng.uniform_u64(frontier.size());
        if (std::get<2>(frontier[cand]) < std::get<2>(frontier[best])) {
          best = cand;
        }
      }
      const auto [from, to, lat] = frontier[best];
      frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(best));
      if (in_tree[to]) continue;
      in_tree[to] = true;
      ++joined;
      if (!g.has_edge(from, to)) g.add_edge(from, to, lat);
      push_edges(to);
    }
    HERMES_REQUIRE(joined == n && "physical graph must be connected");
  }

  // Tree unions can share cut nodes; the ring makes them (f+1)-connected.
  add_ring(g, topo, RingOrder::kShuffled, net::ring_strides(f + 1), rng);
  return g;
}

FloodMetrics measure_flood(const net::Graph& g, net::NodeId source) {
  FloodMetrics m;
  m.arrival_ms = g.shortest_latencies(source);
  m.messages_sent.assign(g.node_count(), 0.0);
  std::size_t reached = 0;
  std::vector<double> arrivals;
  for (net::NodeId v = 0; v < g.node_count(); ++v) {
    if (m.arrival_ms[v] == net::kInfLatency) continue;
    ++reached;
    if (v != source) arrivals.push_back(m.arrival_ms[v]);
    // Under flooding every reached node transmits to all neighbors except
    // the link the first copy arrived on (the source uses all links).
    const double fanout = static_cast<double>(g.degree(v)) - (v == source ? 0.0 : 1.0);
    m.messages_sent[v] = std::max(fanout, 0.0);
  }
  m.avg_latency = hermes::mean_of(arrivals);
  m.load_stddev = hermes::stddev_of(m.messages_sent);
  m.reached_fraction =
      static_cast<double>(reached) / static_cast<double>(g.node_count());
  return m;
}

FloodMetrics measure_overlay_flood(const Overlay& o) {
  FloodMetrics m;
  m.arrival_ms = o.dissemination_latencies();
  m.messages_sent.assign(o.node_count(), 0.0);
  std::size_t reached = 0;
  std::vector<double> arrivals;
  for (net::NodeId v = 0; v < o.node_count(); ++v) {
    if (m.arrival_ms[v] == net::kInfLatency) continue;
    ++reached;
    if (!o.is_entry(v)) arrivals.push_back(m.arrival_ms[v]);
    m.messages_sent[v] = static_cast<double>(o.successors(v).size());
  }
  m.avg_latency = hermes::mean_of(arrivals);
  m.load_stddev = hermes::stddev_of(m.messages_sent);
  m.reached_fraction =
      static_cast<double>(reached) / static_cast<double>(o.node_count());
  return m;
}

}  // namespace hermes::overlay
