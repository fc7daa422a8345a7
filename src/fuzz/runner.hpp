// Executes one Scenario on the discrete-event engine with the invariant
// suite observing every send and delivery. The run is a pure function of
// the Scenario struct: replaying the same scenario (from its seed or from
// a serialized corpus entry) reproduces the identical trace hash.
#pragma once

#include <string>

#include "fuzz/invariants.hpp"
#include "fuzz/scenario.hpp"

namespace hermes::fuzz {

struct RunOptions {
  // Observation-stream corruption applied before the verdict (mutation
  // testing of the oracle itself).
  Mutation mutation = Mutation::kNone;
  // Worker threads driving the region-sharded engine. The trace hash is
  // identical for every value — that is the determinism contract the
  // cross-worker suite enforces. 0 = hardware concurrency.
  std::size_t workers = 1;
};

struct RunResult {
  std::vector<Failure> failures;
  // Hex SHA-256 over the canonical send stream (time bits, src, dst, type,
  // wire bytes of every send, in engine order).
  std::string trace_hash;
  std::size_t sends = 0;
  double sim_end_ms = 0.0;
  // Epoch-pipeline introspection (all zero unless the scenario enabled the
  // pipeline): how churn was absorbed during the run.
  std::uint64_t pipelined_installs = 0;
  std::uint64_t stop_the_world_advances = 0;
  std::uint64_t pipeline_invalidations = 0;
  std::uint64_t deltas_absorbed = 0;

  bool ok() const { return failures.empty(); }
};

RunResult run_scenario(const Scenario& s, const RunOptions& opts = {});

}  // namespace hermes::fuzz
