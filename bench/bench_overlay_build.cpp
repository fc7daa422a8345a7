// Section VIII-A micro-benchmarks (google-benchmark): overlay construction
// cost (the paper reports < 15 s for k = 10 overlays at N = 10,000) and the
// hashing and simulated threshold signatures on HERMES's critical path
// (bench_crypto times the real threshold RSA).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "crypto/sim_signer.hpp"
#include "overlay/builder.hpp"
#include "overlay/encoding.hpp"

namespace {

using namespace hermes;

void BM_RobustTreeBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const net::Topology topo = bench::make_bench_topology(n, 42);
  for (auto _ : state) {
    overlay::RankTable ranks(n, 0.0);
    benchmark::DoNotOptimize(
        overlay::build_robust_tree(topo.graph, 1, ranks));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RobustTreeBuild)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void run_overlay_set_k10(benchmark::State& state, std::size_t n) {
  const net::Topology topo = bench::make_bench_topology(n, 42);
  overlay::BuilderParams params;
  params.f = 1;
  params.k = 10;
  params.annealing = bench::bench_hermes_config().builder.annealing;
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(overlay::build_overlay_set(topo.graph, params, rng));
  }
}

void BM_OverlaySetBuildK10(benchmark::State& state) {
  run_overlay_set_k10(state, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_OverlaySetBuildK10)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

// One annealing pass as build_overlay_set runs it (N = 200, bench config).
void BM_SimulatedAnnealingPass(benchmark::State& state) {
  const std::size_t n = 200;
  const net::Topology topo = bench::make_bench_topology(n, 42);
  overlay::RankTable ranks(n, 0.0);
  const overlay::Overlay tree =
      overlay::build_robust_tree(topo.graph, 1, ranks);
  const overlay::AnnealingParams params =
      bench::bench_hermes_config().builder.annealing;
  for (auto _ : state) {
    Rng rng(9);
    benchmark::DoNotOptimize(
        overlay::anneal(tree, topo.graph, ranks, params, rng));
  }
}
BENCHMARK(BM_SimulatedAnnealingPass)->Unit(benchmark::kMillisecond);

void BM_OverlayEncode(benchmark::State& state) {
  const std::size_t n = 200;
  const net::Topology topo = bench::make_bench_topology(n, 42);
  overlay::RankTable ranks(n, 0.0);
  const overlay::Overlay tree =
      overlay::build_robust_tree(topo.graph, 1, ranks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay::encode_overlay(tree));
  }
}
BENCHMARK(BM_OverlayEncode);

void BM_Sha256_1KiB(benchmark::State& state) {
  Bytes data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_SimThresholdRoundTrip(benchmark::State& state) {
  const crypto::SimThresholdScheme scheme(to_bytes("grp"), 4, 3);
  const Bytes msg = to_bytes("seed material");
  for (auto _ : state) {
    std::vector<crypto::PartialSignature> partials;
    for (std::size_t i = 1; i <= 3; ++i) {
      partials.push_back(scheme.partial_sign(i, msg));
    }
    benchmark::DoNotOptimize(scheme.combine(msg, partials));
  }
}
BENCHMARK(BM_SimThresholdRoundTrip);

}  // namespace

// Custom main: tolerate the shared sweep flags (--reps/--txs/...) that the
// other bench binaries accept, passing only --benchmark_* through. --nodes N
// additionally registers the paper-scale overlay-set build at that N.
int main(int argc, char** argv) {
  std::vector<char*> filtered{argv[0]};
  std::size_t custom_nodes = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      filtered.push_back(argv[i]);
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      char* end = nullptr;
      custom_nodes = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || custom_nodes == 0) {
        std::fprintf(stderr, "error: --nodes expects a positive integer, got '%s'\n",
                     argv[i]);
        return 1;
      }
    }
  }
  // Paper-scale construction: registered only when --nodes is passed, so CI
  // runs stay at the friendly defaults while `--nodes 2000` / `--nodes 5000`
  // reproduce the Section VIII-A scaling point on demand.
  if (custom_nodes > 0) {
    benchmark::RegisterBenchmark(
        ("BM_OverlaySetBuildK10/" + std::to_string(custom_nodes)).c_str(),
        [custom_nodes](benchmark::State& state) {
          run_overlay_set_k10(state, custom_nodes);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
