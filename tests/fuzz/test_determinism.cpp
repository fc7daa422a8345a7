// Cross-run trace determinism: a scenario is a pure function of its
// struct, so the full simulated message trace must be byte-identical from
// run to run.
#include <gtest/gtest.h>

#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"

namespace hermes::fuzz {
namespace {

Scenario base_scenario() {
  Scenario s;
  s.seed = 424242;
  s.nodes = 20;
  s.f = 1;
  s.k = 3;
  s.min_degree = 5;
  s.committee = {2, 7, 11, 15};
  s.injections.push_back(Injection{80.0, 4, 0});
  s.injections.push_back(Injection{350.0, 9, 3});  // one erasure-coded batch
  s.injections.push_back(Injection{700.0, 17, 0});
  s.drain_ms = 6000.0;
  return s;
}

TEST(Determinism, SameScenarioYieldsIdenticalTrace) {
  const RunResult a = run_scenario(base_scenario());
  const RunResult b = run_scenario(base_scenario());
  EXPECT_TRUE(a.ok()) << a.failures[0].detail;
  EXPECT_GT(a.sends, 0u);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.sends, b.sends);
}

TEST(Determinism, GeneratedSeedsReplayIdentically) {
  for (std::uint64_t seed : {3ULL, 8ULL, 21ULL}) {
    const Scenario s = generate_scenario(seed);
    const RunResult a = run_scenario(s);
    const RunResult b = run_scenario(s);
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
    EXPECT_EQ(a.sends, b.sends) << "seed " << seed;
  }
}

TEST(Determinism, DifferentSeedsProduceDifferentTraces) {
  const RunResult a = run_scenario(generate_scenario(3));
  const RunResult b = run_scenario(generate_scenario(8));
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(Determinism, ExtendedFaultModesReplayIdentically) {
  // Link flaps, stragglers and the self-healing loop all consume no extra
  // randomness at runtime, so a scenario exercising all three must replay
  // to the same byte trace.
  for (std::uint64_t seed : {424242ULL, 777ULL}) {
    Scenario s = base_scenario();
    s.seed = seed;
    s.self_healing = true;
    s.link_flaps.push_back(LinkFlap{1, 5, 100.0, 600.0});
    s.link_flaps.push_back(LinkFlap{4, 9, 300.0, 1200.0});
    s.stragglers.push_back(Straggler{3, 80.0});
    s.drain_ms = 12000.0;
    const RunResult a = run_scenario(s);
    const RunResult b = run_scenario(s);
    EXPECT_TRUE(a.ok()) << a.failures[0].checker << ": "
                        << a.failures[0].detail;
    EXPECT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
    EXPECT_EQ(a.sends, b.sends) << "seed " << seed;
  }
}

TEST(Determinism, IdentityKnobsAreTraceNeutral) {
  // A 1.0 processing multiplier and a flap window that never overlaps the
  // run must leave the trace bit-identical to a run without the knobs.
  Scenario knobs = base_scenario();
  knobs.stragglers.push_back(Straggler{3, 1.0});
  knobs.link_flaps.push_back(LinkFlap{1, 5, -10.0, -5.0});
  const RunResult a = run_scenario(base_scenario());
  const RunResult b = run_scenario(knobs);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

}  // namespace
}  // namespace hermes::fuzz
