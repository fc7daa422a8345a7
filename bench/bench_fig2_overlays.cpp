// Figure 2: dissemination latency and per-node load stddev over a single
// f+1-connected instance of each overlay family: robust tree (pre-pruning),
// chordal ring, hypercube, random f+1-connected overlay.
//
// Expected shape (paper): robust trees show the LOWEST latency but the
// HIGHEST load imbalance; ring/hypercube/random overlays balance load but
// pay multi-hop latency.
#include <cstdio>

#include "bench/common.hpp"
#include "overlay/families.hpp"
#include "overlay/robust_tree.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  const auto opt = bench::Options::parse(argc, argv, /*default_nodes=*/200);
  const std::size_t f = 1;

  std::printf("Figure 2 — overlay families (N=%zu, f=%zu, %zu reps)\n",
              opt.nodes, f, opt.reps);
  std::printf("%-22s %14s %16s %10s\n", "overlay", "avg latency ms",
              "load stddev msg", "reached");

  struct Row {
    const char* name;
    RunningStats latency, load, reach;
  };
  Row rows[] = {{"robust-tree (raw)", {}, {}, {}},
                {"chordal-ring", {}, {}, {}},
                {"hypercube", {}, {}, {}},
                {"random f+1-conn", {}, {}, {}},
                {"k-diamond", {}, {}, {}},
                {"pasted-trees", {}, {}, {}}};

  for (std::size_t rep = 0; rep < opt.reps; ++rep) {
    const std::uint64_t seed = opt.seed + rep;
    const net::Topology topo = bench::make_bench_topology(opt.nodes, seed);
    Rng rng(seed ^ 0xf16);

    // Robust tree (pre-pruning), flooded from its entry points.
    {
      overlay::RankTable ranks(opt.nodes, 0.0);
      const overlay::Overlay tree =
          overlay::build_robust_tree(topo.graph, f, ranks);
      const auto m = overlay::measure_overlay_flood(tree);
      rows[0].latency.add(m.avg_latency);
      rows[0].load.add(m.load_stddev);
      rows[0].reach.add(m.reached_fraction);
    }
    // Undirected families, flooded from a random source.
    const net::NodeId source =
        static_cast<net::NodeId>(rng.uniform_u64(opt.nodes));
    const net::Graph ring = overlay::make_chordal_ring(topo, f, rng);
    const net::Graph cube = overlay::make_hypercube(topo, f, rng);
    const net::Graph rand_g = overlay::make_random_connected(topo, f, rng);
    const net::Graph diamond = overlay::make_k_diamond(topo, f, rng);
    const net::Graph pasted = overlay::make_pasted_trees(topo, f, rng);
    const overlay::FloodMetrics ms[] = {overlay::measure_flood(ring, source),
                                        overlay::measure_flood(cube, source),
                                        overlay::measure_flood(rand_g, source),
                                        overlay::measure_flood(diamond, source),
                                        overlay::measure_flood(pasted, source)};
    for (int i = 0; i < 5; ++i) {
      rows[i + 1].latency.add(ms[i].avg_latency);
      rows[i + 1].load.add(ms[i].load_stddev);
      rows[i + 1].reach.add(ms[i].reached_fraction);
    }
  }

  for (const Row& row : rows) {
    std::printf("%-22s %14.2f %16.2f %9.1f%%\n", row.name, row.latency.mean(),
                row.load.mean(), row.reach.mean() * 100.0);
  }
  return 0;
}
