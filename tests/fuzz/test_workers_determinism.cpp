// Cross-worker determinism suite: the trace hash of every fuzz-corpus
// scenario must be byte-identical for any engine worker count. This is the
// acceptance contract of the region-sharded parallel engine — parallelism
// may only change wall-clock time, never the simulation.
#include <gtest/gtest.h>

#include <string>

#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"

namespace hermes::fuzz {
namespace {

constexpr std::uint64_t kCorpusSeeds = 24;
const std::size_t kWorkerCounts[] = {2, 4, 8};

// Full corpus x {1, 2, 4, 8} workers, hashes compared byte for byte. The
// whole product runs in well under a second; no sampling needed.
TEST(WorkersDeterminism, CorpusTraceHashesIdenticalAcrossWorkerCounts) {
  for (std::uint64_t seed = 1; seed <= kCorpusSeeds; ++seed) {
    // Legacy (non-extended) generation, matching fuzz --hash-batch: this
    // suite doubles as the long-lived trace-equivalence baseline.
    const Scenario s = generate_scenario(seed, false);
    RunOptions opts;
    opts.workers = 1;
    const RunResult base = run_scenario(s, opts);
    ASSERT_FALSE(base.trace_hash.empty()) << "seed " << seed;
    for (const std::size_t workers : kWorkerCounts) {
      opts.workers = workers;
      const RunResult r = run_scenario(s, opts);
      EXPECT_EQ(r.trace_hash, base.trace_hash)
          << "seed " << seed << " diverged at workers=" << workers;
      EXPECT_EQ(r.sends, base.sends)
          << "seed " << seed << " send count diverged at workers=" << workers;
    }
  }
}

// workers = 0 (auto, hardware concurrency) is also on the contract.
TEST(WorkersDeterminism, AutoWorkersMatchesSingleThread) {
  const Scenario s = generate_scenario(1, false);
  RunOptions opts;
  opts.workers = 1;
  const std::string base = run_scenario(s, opts).trace_hash;
  opts.workers = 0;
  EXPECT_EQ(run_scenario(s, opts).trace_hash, base);
}

// Extended scenarios carrying sustained multi-tx load (and usually
// mempool pressure) are on the same contract: hundreds of in-flight
// transactions across shards must not open a worker-visible race.
TEST(WorkersDeterminism, LoadedScenariosIdenticalAcrossWorkerCounts) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 16 && checked < 2; ++seed) {
    const Scenario s = generate_scenario(seed);
    if (!s.has_load()) continue;
    ++checked;
    RunOptions opts;
    opts.workers = 1;
    const RunResult base = run_scenario(s, opts);
    ASSERT_FALSE(base.trace_hash.empty()) << "seed " << seed;
    for (const std::size_t workers : {2, 4}) {
      opts.workers = workers;
      const RunResult r = run_scenario(s, opts);
      EXPECT_EQ(r.trace_hash, base.trace_hash)
          << "loaded seed " << seed << " diverged at workers=" << workers;
      EXPECT_EQ(r.sends, base.sends) << "loaded seed " << seed;
    }
  }
  EXPECT_GE(checked, 1u) << "no loaded scenario in the sampled range";
}

}  // namespace
}  // namespace hermes::fuzz
