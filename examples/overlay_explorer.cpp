// Overlay explorer: builds every overlay family the paper compares
// (Figure 2) over one physical network and prints their structure and
// flood behaviour side by side, then shows what simulated annealing does
// to a robust tree step by step.
//
//   ./build/examples/overlay_explorer [nodes]
#include <cstdio>
#include <cstdlib>

#include "net/connectivity.hpp"
#include "net/topology.hpp"
#include "overlay/annealing.hpp"
#include "overlay/builder.hpp"
#include "overlay/encoding.hpp"
#include "overlay/families.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using namespace hermes::overlay;
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 64;
  const std::size_t f = 1;

  net::TopologyParams tp;
  tp.node_count = n;
  tp.min_degree = 5;
  Rng trng(3);
  const net::Topology topo = net::make_topology(tp, trng);
  std::printf("physical network: %zu nodes, %zu edges, kappa=%zu\n\n", n,
              topo.graph.edge_count(), net::vertex_connectivity(topo.graph));

  Rng rng(4);
  const net::Graph ring = make_chordal_ring(topo, f, rng);
  const net::Graph cube = make_hypercube(topo, f, rng);
  const net::Graph rnd = make_random_connected(topo, f, rng);

  std::printf("%-18s %7s %9s %12s %10s\n", "family", "edges", "kappa",
              "flood ms", "load sd");
  struct Fam {
    const char* name;
    const net::Graph* g;
  };
  for (const Fam& fam : {Fam{"chordal-ring", &ring}, Fam{"hypercube", &cube},
                         Fam{"random", &rnd}}) {
    const FloodMetrics m = measure_flood(*fam.g, 0);
    std::printf("%-18s %7zu %9zu %12.1f %10.2f\n", fam.name,
                fam.g->edge_count(), net::vertex_connectivity(*fam.g),
                m.avg_latency, m.load_stddev);
  }

  // Robust tree: raw, then annealed, with the objective broken out.
  RankTable ranks(n, 0.0);
  const Overlay raw = build_robust_tree(topo.graph, f, ranks);
  const FloodMetrics raw_m = measure_overlay_flood(raw);
  std::printf("%-18s %7zu %9s %12.1f %10.2f   (directed, depth %zu)\n",
              "robust-tree raw", raw.edge_count(), "-", raw_m.avg_latency,
              raw_m.load_stddev, raw.max_depth());

  AnnealingParams anneal_params;
  anneal_params.initial_temperature = 20.0;
  anneal_params.min_temperature = 0.5;
  anneal_params.cooling_rate = 0.9;
  anneal_params.moves_per_temperature = 8;
  const RankTable zero_ranks(n, 0.0);
  std::printf("\nsimulated annealing (objective = edges + latency + "
              "connectivity + path + rank):\n");
  std::printf("  before: objective %.1f\n",
              objective_value(raw, zero_ranks, anneal_params.weights));
  Rng arng(5);
  const Overlay optimized =
      anneal(raw, topo.graph, zero_ranks, anneal_params, arng);
  const FloodMetrics opt_m = measure_overlay_flood(optimized);
  std::printf("  after:  objective %.1f — %zu edges, flood %.1f ms, valid=%s\n",
              objective_value(optimized, zero_ranks, anneal_params.weights),
              optimized.edge_count(), opt_m.avg_latency,
              optimized.is_valid() ? "yes" : "NO");

  // Wire encoding: what the committee signs and ships (Algorithm 5).
  const Bytes encoded = encode_overlay(optimized);
  std::printf("\ncompact encoding: %zu bytes (%.1f bytes/link)\n",
              encoded.size(),
              static_cast<double>(encoded.size()) /
                  static_cast<double>(optimized.edge_count()));
  const auto decoded = decode_overlay(encoded);
  std::printf("decode round-trip: %s\n",
              decoded && decoded->is_valid() ? "ok" : "FAILED");
  return 0;
}
