// Region-sharded engine semantics: shard-stable sequence numbers, the
// conservative window loop, cross-shard mailboxes, deferred global
// effects, and the determinism-across-workers contract. An engine with no
// region lanes (control lane only) is covered by test_engine.cpp.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace hermes::sim {
namespace {

struct Rec {
  double when;
  std::uint32_t shard;
  std::uint64_t id;
  bool operator==(const Rec& o) const {
    return when == o.when && shard == o.shard && id == o.id;
  }
};

// Self-rescheduling workload touching every scheduling path: in-lane
// timers, cross-shard hops at the lookahead horizon, and control events.
// All observations go through defer(), whose replay order is the canonical
// (when, seq, idx) order of the sequential execution.
struct Timer {
  Engine* e;
  std::shared_ptr<std::vector<Rec>> log;
  std::uint32_t shard;
  std::uint64_t id;
  int remaining;
  double period;

  void operator()() {
    Engine* eng = e;
    auto lg = log;
    const Rec rec{eng->now(), shard, id};
    eng->defer([lg, rec] { lg->push_back(rec); });
    if (remaining <= 0) return;
    Timer next = *this;
    --next.remaining;
    next.id += 1000;
    eng->schedule(period, next);
    if (remaining % 3 == 0) {
      const std::uint32_t dst = (shard + 1) % 4;
      Timer hop = *this;
      hop.shard = dst;
      hop.remaining = 0;
      hop.id += 500000;
      eng->schedule_cross(dst, eng->now() + 10.0 + 0.5 * double(id % 7),
                          std::move(hop));
    }
    if (remaining == 2) {
      eng->schedule_global(0.0, [lg, rec] {
        lg->push_back(Rec{rec.when, 99, rec.id + 900000});
      });
    }
  }
};
static_assert(sizeof(Timer) <= EventFn::kInlineBytes);

std::vector<Rec> drive(std::size_t workers) {
  Engine e;
  e.configure_shards(4, 10.0);
  e.set_workers(workers);
  auto log = std::make_shared<std::vector<Rec>>();
  for (std::uint32_t s = 0; s < 4; ++s) {
    Engine::ShardScope scope(e, s);
    for (int k = 0; k < 8; ++k) {
      e.schedule(0.5 * double(s + 1) + double(k),
                 Timer{&e, log, s, s * 100ULL + std::uint64_t(k), 12,
                       3.0 + 0.25 * double(s)});
    }
  }
  e.run_until(200.0);
  return *log;
}

// The headline contract: the observed event sequence is bit-identical for
// every worker count, including the sequential workers == 1 drive.
TEST(EngineSharded, ObservationOrderIdenticalAcrossWorkerCounts) {
  const std::vector<Rec> base = drive(1);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(drive(2), base);
  EXPECT_EQ(drive(4), base);
  EXPECT_EQ(drive(8), base);
}

// Shard-stable seq regression: among same-time events from different
// lanes, execution order is by shard id — a function of simulation content
// — not by insertion order (a global FIFO counter would order these by
// who scheduled first, which under parallel drains is a race).
TEST(EngineSharded, SameTimeCrossLaneOrderIsByShardNotInsertion) {
  Engine e;
  e.configure_shards(2, 5.0);
  auto log = std::make_shared<std::vector<int>>();
  {
    Engine::ShardScope scope(e, 1);  // lane 1 schedules FIRST
    e.schedule_at(7.0, [&e, log] { e.defer([log] { log->push_back(1); }); });
  }
  {
    Engine::ShardScope scope(e, 0);  // lane 0 schedules second
    e.schedule_at(7.0, [&e, log] { e.defer([log] { log->push_back(0); }); });
  }
  e.run_until(10.0);
  EXPECT_EQ(*log, (std::vector<int>{0, 1}));
}

// Cross-shard sends over one (src, dst) link preserve send order: equal
// delivery times tie-break on the source-assigned seq, which increases in
// send order.
TEST(EngineSharded, CrossShardFifoPerLink) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    Engine e;
    e.configure_shards(2, 5.0);
    e.set_workers(workers);
    auto log = std::make_shared<std::vector<int>>();
    {
      Engine::ShardScope scope(e, 0);
      e.schedule_at(1.0, [&e, log] {
        for (int i = 0; i < 4; ++i) {
          e.schedule_cross(1, 20.0, [&e, log, i] {
            e.defer([log, i] { log->push_back(i); });
          });
        }
        // Distinct delivery times arrive in time order regardless of the
        // order the sends were issued in.
        e.schedule_cross(1, 31.0, [&e, log] {
          e.defer([log] { log->push_back(11); });
        });
        e.schedule_cross(1, 30.0, [&e, log] {
          e.defer([log] { log->push_back(10); });
        });
      });
    }
    e.run_until(40.0);
    EXPECT_EQ(*log, (std::vector<int>{0, 1, 2, 3, 10, 11})) << "workers "
                                                            << workers;
  }
}

// Control events run with all lanes quiescent and order after same-time
// lane events (the control lane carries the highest seq tag).
TEST(EngineSharded, ControlRunsQuiescentAfterSameTimeLaneEvents) {
  Engine e;
  e.configure_shards(2, 5.0);
  auto log = std::make_shared<std::vector<int>>();
  e.schedule_global_at(5.0, [&e, log] {
    EXPECT_FALSE(e.in_shard_drain());
    log->push_back(100);
  });
  {
    Engine::ShardScope scope(e, 1);
    e.schedule_at(5.0, [&e, log] {
      EXPECT_TRUE(e.in_shard_drain());
      e.defer([log] { log->push_back(1); });
    });
  }
  e.run_until(10.0);
  EXPECT_EQ(*log, (std::vector<int>{1, 100}));
}

// schedule_global from inside a draining lane lands at the earliest
// quiescent point — never before the current window bound.
TEST(EngineSharded, GlobalFromLaneDefersToWindowBarrier) {
  Engine e;
  e.configure_shards(2, 5.0);
  auto log = std::make_shared<std::vector<double>>();
  {
    Engine::ShardScope scope(e, 0);
    e.schedule_at(1.0, [&e, log] {
      e.schedule_global(0.0, [&e, log] {
        EXPECT_FALSE(e.in_shard_drain());
        log->push_back(e.now());
      });
    });
  }
  e.run_until(50.0);
  ASSERT_EQ(log->size(), 1u);
  // At or after the scheduling event's window bound (>= its timestamp).
  EXPECT_GE((*log)[0], 1.0);
}

// Cross-shard inserts below the lookahead horizon are a correctness error
// and must trip loudly instead of silently reordering.
// A cross-lane event whose latency equals the lookahead lands at the
// window bound, inside the window: the merge must call for another drain,
// so it runs before the control event at that bound. Each region lane is
// the one destination of such an event in one window, so every
// destination's answer counts.
std::vector<std::pair<double, int>> drive_in_window_hops(std::size_t workers) {
  constexpr std::uint32_t kLanes = 4;
  constexpr double kLookahead = 10.0;
  Engine e;
  e.configure_shards(kLanes, kLookahead);
  e.set_workers(workers);
  auto log = std::make_shared<std::vector<std::pair<double, int>>>();
  for (std::uint32_t k = 0; k < kLanes; ++k) {
    const double t = 100.0 * k + 1.0;
    {
      Engine::ShardScope scope(e, k);
      e.schedule_at(t, [&e, log, k] {
        const int sender = static_cast<int>(k);
        e.defer([log, now = e.now(), sender] {
          log->emplace_back(now, sender);
        });
        const std::uint32_t dst = (k + 1) % kLanes;
        e.schedule_cross(dst, e.now() + kLookahead, [&e, log, dst] {
          e.defer([log, now = e.now(), hop = 100 + static_cast<int>(dst)] {
            log->emplace_back(now, hop);
          });
        });
      });
    }
    e.schedule_global_at(t + kLookahead, [&e, log, k] {
      log->emplace_back(e.now(), 200 + static_cast<int>(k));
    });
  }
  e.run();
  return *log;
}

TEST(EngineSharded, InWindowCrossEventRedrainsAtEveryWorkerCount) {
  std::vector<std::pair<double, int>> expected;
  for (int k = 0; k < 4; ++k) {
    const double t = 100.0 * k + 1.0;
    expected.emplace_back(t, k);                       // the sender
    expected.emplace_back(t + 10.0, 100 + (k + 1) % 4);  // its hop
    expected.emplace_back(t + 10.0, 200 + k);          // then control
  }
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    EXPECT_EQ(drive_in_window_hops(workers), expected);
  }
}

TEST(EngineShardedDeathTest, CrossShardBelowLookaheadTrips) {
  auto violate = [] {
    Engine e;
    e.configure_shards(2, 5.0);
    {
      Engine::ShardScope scope(e, 0);
      e.schedule_at(1.0, [&e] { e.schedule_cross(1, e.now() + 1.0, [] {}); });
    }
    e.run_until(10.0);
  };
  EXPECT_DEATH(violate(), "lookahead");
}

// defer() outside any drain runs the effect immediately — set-up code and
// control events see unchanged semantics.
TEST(EngineSharded, DeferOutsideDrainRunsImmediately) {
  Engine e;
  e.configure_shards(2, 5.0);
  int fired = 0;
  e.defer([&fired] { ++fired; });
  EXPECT_EQ(fired, 1);
}

TEST(EngineSharded, WorkersZeroResolvesToHardwareConcurrency) {
  Engine e;
  e.configure_shards(4, 10.0);
  e.set_workers(0);
  EXPECT_GE(e.workers(), 1u);
}

}  // namespace
}  // namespace hermes::sim
