// Section VIII-A micro-benchmarks (google-benchmark): overlay construction
// cost (the paper reports < 15 s for k = 10 overlays at N = 10,000) and the
// cryptographic primitives on HERMES's critical path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "crypto/sim_signer.hpp"
#include "crypto/threshold_rsa.hpp"
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

void BM_OverlaySetBuildK10(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
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

// Serial vs parallel candidate evaluation at a fixed batch size; Arg is the
// worker count. The annealed overlay is bit-identical across all Args.
void BM_SimulatedAnnealingWorkers(benchmark::State& state) {
  const std::size_t n = 200;
  const net::Topology topo = bench::make_bench_topology(n, 42);
  overlay::RankTable ranks(n, 0.0);
  const overlay::Overlay tree =
      overlay::build_robust_tree(topo.graph, 1, ranks);
  overlay::AnnealingParams params =
      bench::bench_hermes_config().builder.annealing;
  params.batch_size = 8;
  params.workers = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(params.workers > 1 ? params.workers - 1 : 0);
  for (auto _ : state) {
    Rng rng(9);
    benchmark::DoNotOptimize(
        overlay::anneal(tree, topo.graph, ranks, params, rng, &pool));
  }
}
BENCHMARK(BM_SimulatedAnnealingWorkers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

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

void BM_ThresholdRsaPartialSign(benchmark::State& state) {
  Rng rng(31337);
  static const crypto::ThresholdRsaKey key =
      crypto::threshold_rsa_generate(rng, 256, 4, 3);
  const Bytes msg = to_bytes("seed material");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::threshold_partial_sign(key.pub, key.shares[0], msg));
  }
}
BENCHMARK(BM_ThresholdRsaPartialSign)->Unit(benchmark::kMillisecond);

void BM_ThresholdRsaCombine(benchmark::State& state) {
  Rng rng(31337);
  static const crypto::ThresholdRsaKey key =
      crypto::threshold_rsa_generate(rng, 256, 4, 3);
  const Bytes msg = to_bytes("seed material");
  std::vector<crypto::ThresholdPartial> partials;
  for (std::size_t i = 0; i < 3; ++i) {
    partials.push_back(
        crypto::threshold_partial_sign(key.pub, key.shares[i], msg));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::threshold_combine(key.pub, msg, partials));
  }
}
BENCHMARK(BM_ThresholdRsaCombine)->Unit(benchmark::kMillisecond);

// Paper-scale construction: registered only when --nodes is passed, so CI
// runs stay at the friendly defaults while `--nodes 2000` / `--nodes 5000`
// reproduce the Section VIII-A scaling point on demand.
void BM_OverlaySetBuildK10AtNodes(benchmark::State& state, std::size_t n) {
  const net::Topology topo = bench::make_bench_topology(n, 42);
  overlay::BuilderParams params;
  params.f = 1;
  params.k = 10;
  params.annealing = bench::bench_hermes_config().builder.annealing;
  params.annealing.batch_size = 8;
  params.annealing.workers = std::max(1u, std::thread::hardware_concurrency());
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(overlay::build_overlay_set(topo.graph, params, rng));
  }
}

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
  if (custom_nodes > 0) {
    benchmark::RegisterBenchmark(
        ("BM_OverlaySetBuildK10/" + std::to_string(custom_nodes)).c_str(),
        [custom_nodes](benchmark::State& state) {
          BM_OverlaySetBuildK10AtNodes(state, custom_nodes);
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
