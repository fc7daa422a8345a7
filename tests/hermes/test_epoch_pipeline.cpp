// Background epoch pipeline: hysteresis, bounded delta queue,
// invalidation/retry backoff (unit level, with a hand-driven scheduler),
// plus end-to-end pipelined epoch transitions through the fuzz runner —
// leave/rejoin waves absorbed by warm background rebuilds with zero
// stop-the-world advances and worker-count-invariant traces.
#include "hermes/epoch_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"

namespace hermes::hermes_proto {
namespace {

// Hand-driven scheduler: captures (delay, fn) pairs; the test fires them.
struct Harness {
  std::vector<std::pair<double, std::function<void()>>> scheduled;
  std::vector<std::vector<MembershipDelta>> installs;

  EpochPipeline make() {
    return EpochPipeline(
        [this](double delay, std::function<void()> fn) {
          scheduled.emplace_back(delay, std::move(fn));
        },
        [this](const std::vector<MembershipDelta>& deltas) {
          installs.push_back(deltas);
        });
  }

  void fire() {
    ASSERT_FALSE(scheduled.empty());
    auto fn = std::move(scheduled.back().second);
    scheduled.pop_back();
    fn();
  }
};

TEST(EpochPipeline, HysteresisAbsorbsSmallDeltasIncrementally) {
  static_assert(EpochPipeline::kHysteresis == 2);
  Harness h;
  EpochPipeline p = h.make();
  p.on_membership_change({5, false});
  EXPECT_FALSE(p.annealing());
  EXPECT_TRUE(h.scheduled.empty());
  EXPECT_EQ(p.absorbed_incrementally(), 1u);
  EXPECT_EQ(p.queued(), 1u);

  // The second delta reaches the hysteresis: background anneal starts.
  p.on_membership_change({7, false});
  EXPECT_TRUE(p.annealing());
  ASSERT_EQ(h.scheduled.size(), 1u);
  EXPECT_EQ(h.scheduled[0].first, EpochPipeline::kAnnealMs);

  h.fire();
  EXPECT_FALSE(p.annealing());
  EXPECT_EQ(p.pipelined_installs(), 1u);
  EXPECT_EQ(p.queued(), 0u);  // folded into the install
  ASSERT_EQ(h.installs.size(), 1u);
  EXPECT_EQ(h.installs[0].size(), 2u);
  EXPECT_EQ(h.installs[0][1].node, 7u);
}

TEST(EpochPipeline, MidAnnealChurnInvalidatesAndRetriesWithBackoff) {
  static_assert(EpochPipeline::kAnnealMs == 250.0);
  static_assert(EpochPipeline::kRetryBackoff == 2.0);
  static_assert(EpochPipeline::kMaxRetries == 3);
  Harness h;
  EpochPipeline p = h.make();
  p.on_membership_change({1, false});
  p.on_membership_change({2, false});  // starts the anneal
  ASSERT_EQ(h.scheduled.size(), 1u);

  p.on_membership_change({3, false});  // lands mid-anneal
  EXPECT_EQ(p.absorbed_incrementally(), 1u);  // not absorbed: queued for e+1
  h.fire();
  EXPECT_EQ(p.invalidations(), 1u);
  EXPECT_TRUE(p.annealing());
  ASSERT_EQ(h.scheduled.size(), 1u);
  EXPECT_EQ(h.scheduled[0].first, 500.0);  // kAnnealMs * backoff^1

  p.on_membership_change({4, true});  // again mid-retry
  h.fire();
  EXPECT_EQ(p.invalidations(), 2u);
  ASSERT_EQ(h.scheduled.size(), 1u);
  EXPECT_EQ(h.scheduled[0].first, 1000.0);  // backoff^2

  p.on_membership_change({5, true});
  h.fire();
  EXPECT_EQ(p.invalidations(), 3u);
  ASSERT_EQ(h.scheduled.size(), 1u);
  EXPECT_EQ(h.scheduled[0].first, 2000.0);  // backoff^3, the longest retry

  h.fire();  // quiet this time: the pipelined epoch lands
  EXPECT_FALSE(p.annealing());
  EXPECT_EQ(p.pipelined_installs(), 1u);
  ASSERT_EQ(h.installs.size(), 1u);
  EXPECT_EQ(h.installs[0].size(), 5u);  // all five deltas folded
}

TEST(EpochPipeline, RetryCapInstallsDespiteSustainedChurn) {
  Harness h;
  EpochPipeline p = h.make();
  p.on_membership_change({1, false});
  p.on_membership_change({2, false});
  net::NodeId next = 3;
  for (std::size_t retry = 0; retry < EpochPipeline::kMaxRetries; ++retry) {
    p.on_membership_change({next++, false});  // invalidate every attempt
    h.fire();
  }
  EXPECT_EQ(p.invalidations(), EpochPipeline::kMaxRetries);
  p.on_membership_change({next, false});  // still churning...
  h.fire();                               // ...but the retry cap is spent
  EXPECT_EQ(p.pipelined_installs(), 1u);
  EXPECT_FALSE(p.annealing());
  ASSERT_EQ(h.installs.size(), 1u);
  EXPECT_EQ(h.installs[0].size(), EpochPipeline::kMaxRetries + 3);
}

TEST(EpochPipeline, QueueCapDropsOldestDelta) {
  Harness h;
  EpochPipeline p = h.make();
  // The second delta starts an anneal that never fires, so every later
  // one queues behind it.
  const std::size_t deltas = EpochPipeline::kQueueCap + 2;
  for (net::NodeId v = 0; v < deltas; ++v) p.on_membership_change({v, false});
  EXPECT_TRUE(p.annealing());
  EXPECT_EQ(p.queued(), EpochPipeline::kQueueCap);
  EXPECT_EQ(p.dropped_deltas(), 2u);
}

// --- end-to-end: the full protocol under leave/rejoin waves.

// A compact storm scenario: the first benign HERMES seed with the fallback
// on, churn layer enabled, two waves of f leave/rejoin churn with
// keepalive traffic inside the crash windows (silence strikes need
// ongoing overlay traffic to convict the crashed node).
fuzz::Scenario storm_scenario() {
  std::uint64_t seed = 1;
  fuzz::Scenario s = fuzz::generate_scenario(seed, false);
  while (!(s.hermes() && s.benign() && s.enable_fallback)) {
    s = fuzz::generate_scenario(++seed, false);
  }
  s.self_healing = true;
  s.epoch_pipeline = true;
  std::vector<net::NodeId> exempt = s.committee;
  for (const fuzz::Injection& inj : s.injections) exempt.push_back(inj.sender);
  std::vector<net::NodeId> victims;
  for (net::NodeId v = 0; v < s.nodes && victims.size() < s.f; ++v) {
    if (std::find(exempt.begin(), exempt.end(), v) == exempt.end()) {
      victims.push_back(v);
    }
  }
  double wt = 0.0;
  for (const fuzz::Injection& inj : s.injections) wt = std::max(wt, inj.at_ms);
  wt += 300.0;
  for (int wave = 0; wave < 2; ++wave) {
    fuzz::ChurnEvent crash;
    crash.at_ms = wt;
    crash.nodes = victims;
    s.churn.push_back(crash);
    for (double off : {150.0, 400.0, 650.0, 900.0, 1150.0}) {
      fuzz::Injection pulse;
      pulse.at_ms = wt + off;
      pulse.sender = s.injections.front().sender;
      s.injections.push_back(pulse);
    }
    fuzz::ChurnEvent rejoin;
    rejoin.at_ms = wt + 1800.0;
    rejoin.recover = true;
    rejoin.rejoin = true;
    rejoin.nodes = victims;
    s.churn.push_back(rejoin);
    wt = rejoin.at_ms + 1200.0;
  }
  s.drain_ms = std::max(s.drain_ms, 14000.0);
  return s;
}

TEST(EpochPipelineEndToEnd, WavesAbsorbedByPipelinedInstallsOnly) {
  const fuzz::Scenario s = storm_scenario();
  const fuzz::RunResult r = fuzz::run_scenario(s);
  EXPECT_TRUE(r.ok()) << (r.failures.empty()
                              ? ""
                              : r.failures[0].checker + ": " +
                                    r.failures[0].detail);
  EXPECT_GE(r.pipelined_installs, 2u);
  EXPECT_EQ(r.stop_the_world_advances, 0u)
      << "join/leave waves must never trigger a stop-the-world re-anneal";
}

TEST(EpochPipelineEndToEnd, TraceInvariantAcrossWorkerCounts) {
  const fuzz::Scenario s = storm_scenario();
  fuzz::RunOptions opts;
  opts.workers = 1;
  const fuzz::RunResult base = fuzz::run_scenario(s, opts);
  ASSERT_TRUE(base.ok());
  for (std::size_t workers : {2u, 4u}) {
    opts.workers = workers;
    const fuzz::RunResult r = fuzz::run_scenario(s, opts);
    EXPECT_EQ(r.trace_hash, base.trace_hash) << "workers=" << workers;
    EXPECT_EQ(r.pipelined_installs, base.pipelined_installs);
  }
}

// The feature is dark by default: a scenario without the churn layer keeps
// every pipeline counter at zero.
TEST(EpochPipelineEndToEnd, InertWhenDisabled) {
  std::uint64_t seed = 1;
  fuzz::Scenario s = fuzz::generate_scenario(seed, false);
  while (!s.hermes()) s = fuzz::generate_scenario(++seed, false);
  const fuzz::RunResult r = fuzz::run_scenario(s);
  EXPECT_EQ(r.pipelined_installs, 0u);
  EXPECT_EQ(r.pipeline_invalidations, 0u);
  EXPECT_EQ(r.deltas_absorbed, 0u);
}

}  // namespace
}  // namespace hermes::hermes_proto
