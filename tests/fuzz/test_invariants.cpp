// Oracle liveness via mutation testing: clean scenarios must pass every
// checker, and each observation-stream mutation must be caught by exactly
// the checker guarding that property. A mutated failure must also shrink
// to a minimal scenario that still trips the same checker.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"

namespace hermes::fuzz {
namespace {

using protocols::Behavior;

// Small benign HERMES world: cheap to run, produces certified Data sends
// and one overlay generation, so every mutation has material to corrupt.
Scenario benign_hermes() {
  Scenario s;
  s.seed = 71;
  s.nodes = 16;
  s.f = 1;
  s.k = 2;
  s.min_degree = 4;
  s.committee = {0, 1, 2, 3};
  s.injections.push_back(Injection{60.0, 5, 0});
  s.injections.push_back(Injection{320.0, 9, 0});
  s.drain_ms = 6000.0;
  return s;
}

// The same world made deliberately messy: everything the shrinker should
// be able to strip while a delivery-stream mutation keeps failing.
Scenario messy_hermes() {
  Scenario s = benign_hermes();
  s.seed = 72;
  s.byzantine.push_back(ByzAssignment{6, Behavior::kDropper});
  s.drop_probability = 0.05;
  s.jitter_stddev_ms = 4.0;
  s.enable_acks = true;
  ChurnEvent crash;
  crash.at_ms = 400.0;
  crash.nodes = {11};
  s.churn.push_back(crash);
  PartitionWindow pw;
  pw.start_ms = 200.0;
  pw.end_ms = 900.0;
  pw.assign_seed = 77;
  s.partitions.push_back(pw);
  s.injections.push_back(Injection{500.0, 5, 3});
  s.drain_ms = 16000.0;
  return s;
}

bool has_checker(const std::vector<Failure>& failures,
                 const std::string& checker) {
  for (const Failure& f : failures) {
    if (f.checker == checker) return true;
  }
  return false;
}

TEST(Invariants, CleanBenignScenarioPasses) {
  const RunResult r = run_scenario(benign_hermes());
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures[0].detail);
  EXPECT_GT(r.sends, 0u);
}

TEST(Invariants, CleanGeneratedSeedsPass) {
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
    const RunResult r = run_scenario(generate_scenario(seed));
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": "
                        << (r.failures.empty() ? "" : r.failures[0].checker +
                                                          ": " +
                                                          r.failures[0].detail);
  }
}

struct MutationCase {
  Mutation mutation;
  const char* checker;
};

// gtest prints each case's raw bytes into the test's listed name. Cases
// built as temporaries carry whatever the stack held in the padding after
// `mutation`, often an address that changes from run to run. A table with
// static storage has zeroed padding, so those bytes stay the same; only
// the `checker` pointer at the end still follows the load address.
constexpr MutationCase kMutationCases[] = {
    {Mutation::kDuplicateDelivery, "no-duplicate-delivery"},
    {Mutation::kSequenceFabrication, "sequence-integrity"},
    {Mutation::kWrongOverlay, "overlay-consistency"},
    {Mutation::kFalseAccusation, "no-false-accusation"},
    {Mutation::kOverlayDeficit, "overlay-connectivity"},
    {Mutation::kRepairDivergence, "repair-convergence"},
    {Mutation::kLostRecovery, "recovery-liveness"},
    {Mutation::kPhantomEviction, "mempool-pressure"},
    {Mutation::kEpochSkew, "epoch-transition-safety"},
    {Mutation::kTransitionCut, "transition-connectivity"},
};

class MutationCatches : public ::testing::TestWithParam<MutationCase> {};

TEST_P(MutationCatches, ByItsChecker) {
  const auto [mutation, checker] = GetParam();
  RunOptions opts;
  opts.mutation = mutation;
  Scenario s = benign_hermes();
  if (mutation == Mutation::kRepairDivergence ||
      mutation == Mutation::kLostRecovery ||
      mutation == Mutation::kTransitionCut) {
    // The self-healing checkers only bite when the loop is on, and
    // recovery-liveness additionally wants a recovery-sized drain.
    s.self_healing = true;
    s.drain_ms = 9000.0;
  }
  const RunResult r = run_scenario(s, opts);
  ASSERT_FALSE(r.ok()) << "mutation " << mutation_name(mutation)
                       << " slipped past the oracle";
  EXPECT_TRUE(has_checker(r.failures, checker))
      << "expected checker " << checker << ", got " << r.failures[0].checker;
  // The corruption is targeted: no other checker may fire.
  for (const Failure& f : r.failures) {
    EXPECT_EQ(f.checker, checker) << f.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMutations, MutationCatches, ::testing::ValuesIn(kMutationCases),
    [](const ::testing::TestParamInfo<MutationCase>& info) {
      std::string name = mutation_name(info.param.mutation);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Invariants, MutationNamesRoundTrip) {
  for (Mutation m :
       {Mutation::kNone, Mutation::kDuplicateDelivery,
        Mutation::kSequenceFabrication, Mutation::kWrongOverlay,
        Mutation::kFalseAccusation, Mutation::kOverlayDeficit,
        Mutation::kRepairDivergence, Mutation::kLostRecovery,
        Mutation::kPhantomEviction, Mutation::kEpochSkew,
        Mutation::kTransitionCut}) {
    const auto back = mutation_from(mutation_name(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(mutation_from("banana").has_value());
}

// A failure injected into a deliberately messy scenario must shrink to a
// minimal reproducer: every fault knob the failure does not depend on is
// stripped, and the minimal scenario still fails the same checker.
TEST(Invariants, ShrinkConvergesToMinimalScenario) {
  RunOptions opts;
  opts.mutation = Mutation::kDuplicateDelivery;
  const Scenario original = messy_hermes();
  const RunResult r = run_scenario(original, opts);
  ASSERT_FALSE(r.ok());
  ASSERT_EQ(r.failures[0].checker, "no-duplicate-delivery");

  ShrinkOptions sopts;
  sopts.run = opts;
  const ShrinkOutcome out = shrink(original, r.failures, sopts);
  EXPECT_GT(out.removed, 0u);
  EXPECT_LE(out.runs, sopts.max_runs);

  // The duplicate-delivery mutation needs none of the fault machinery, so
  // greedy shrinking must strip all of it.
  EXPECT_TRUE(out.minimal.partitions.empty());
  EXPECT_TRUE(out.minimal.churn.empty());
  EXPECT_TRUE(out.minimal.byzantine.empty());
  EXPECT_EQ(out.minimal.drop_probability, 0.0);
  EXPECT_EQ(out.minimal.jitter_stddev_ms, 0.0);
  EXPECT_EQ(out.minimal.injections.size(), 1u);

  // And the minimal scenario still fails the same way.
  const RunResult again = run_scenario(out.minimal, opts);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.failures[0].checker, "no-duplicate-delivery");
  // Serialized minimal scenario replays identically (corpus round-trip).
  const auto parsed = parse_scenario(serialize(out.minimal));
  ASSERT_TRUE(parsed.has_value());
  const RunResult replayed = run_scenario(*parsed, opts);
  EXPECT_EQ(replayed.trace_hash, again.trace_hash);
}

}  // namespace
}  // namespace hermes::fuzz
