// HealthMonitor unit tests (self-healing "detect" stage): per-origin
// sequence progress, gap timers, staleness queries, shortfall accounting,
// the degradation-score formula and the epoch-reset semantics the
// view-change hysteresis relies on.
#include "hermes/health.hpp"

#include <gtest/gtest.h>

namespace hermes::hermes_proto {
namespace {

// Delivers sequences first..last of `origin`, in order.
void deliver_range(HealthMonitor& m, net::NodeId origin, std::uint64_t first,
                   std::uint64_t last) {
  for (std::uint64_t seq = first; seq <= last; ++seq) {
    m.note_delivered(origin, seq);
  }
}

using Horizon = std::vector<std::pair<net::NodeId, std::uint64_t>>;

TEST(HealthMonitor, NoGapWhileContiguousTracksMaxSeen) {
  HealthMonitor m;
  deliver_range(m, 3, 1, 5);
  m.tick(100.0);
  EXPECT_FALSE(m.gap_stale(3, 100000.0));
  EXPECT_EQ(m.stale_gap_count(100000.0), 0u);
  EXPECT_TRUE(m.stale_gaps(100000.0).empty());
  EXPECT_EQ(m.horizon(), (Horizon{{3, 5}}));
}

TEST(HealthMonitor, GapOpensAgesAndCloses) {
  HealthMonitor m;
  // The highest seen pulls ahead; the tick at t=100 starts the timer.
  deliver_range(m, 3, 1, 2);
  m.note_seen(3, 5);
  m.tick(100.0);
  EXPECT_FALSE(m.gap_stale(3, 699.0));  // 599 ms old: not yet stale
  EXPECT_TRUE(m.gap_stale(3, 700.0));   // exactly 600 ms: stale
  const auto gaps = m.stale_gaps(700.0);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].origin, 3u);
  EXPECT_EQ(gaps[0].next_seq, 3u);  // first missing sequence
  EXPECT_EQ(gaps[0].max_seen, 5u);
  // The hole fills: the next tick closes the gap and staleness resets.
  deliver_range(m, 3, 3, 5);
  m.tick(800.0);
  EXPECT_FALSE(m.gap_stale(3, 100000.0));
  // A new hole restarts the timer from the tick that saw it.
  m.note_seen(3, 7);
  m.tick(900.0);
  EXPECT_FALSE(m.gap_stale(3, 1400.0));
  EXPECT_TRUE(m.gap_stale(3, 1500.0));
}

TEST(HealthMonitor, PersistentGapKeepsOriginalOpenTime) {
  HealthMonitor m;
  m.note_seen(9, 2);
  m.tick(50.0);
  // Later ticks over the same open gap must not reset the timer.
  m.note_seen(9, 3);
  m.tick(300.0);
  m.note_delivered(9, 1);
  m.tick(600.0);
  EXPECT_TRUE(m.gap_stale(9, 650.0));  // 600 ms after the t=50 open
  // next_seq follows the latest contiguous frontier, not the open-time one.
  const auto gaps = m.stale_gaps(650.0);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].next_seq, 2u);
}

TEST(HealthMonitor, StaleGapCountSpansOrigins) {
  HealthMonitor m;
  m.note_seen(1, 4);
  deliver_range(m, 2, 1, 3);
  m.note_seen(2, 9);
  deliver_range(m, 5, 1, 7);  // no gap
  m.tick(0.0);
  m.note_seen(8, 1);
  m.tick(500.0);
  EXPECT_EQ(m.stale_gap_count(600.0), 2u);   // origins 1 and 2
  EXPECT_EQ(m.stale_gap_count(1100.0), 3u);  // origin 8 joins
  EXPECT_EQ(m.stale_gaps(1100.0).size(), 3u);
  EXPECT_FALSE(m.gap_stale(5, 1100.0));
  EXPECT_FALSE(m.gap_stale(42, 1100.0));  // unknown origin
  // The horizon lists every known origin once, ascending.
  EXPECT_EQ(m.horizon(), (Horizon{{1, 4}, {2, 9}, {5, 7}, {8, 1}}));
}

TEST(HealthMonitor, FrontierDrainsTheAheadSetAndClosesTheGap) {
  HealthMonitor m;
  // Out of order: 2, 4 and 3 wait ahead of the missing 1.
  for (const std::uint64_t seq : {2u, 4u, 3u}) m.note_delivered(6, seq);
  m.note_seen(6, 6);
  m.tick(0.0);
  auto gaps = m.stale_gaps(600.0);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].next_seq, 1u);
  EXPECT_EQ(gaps[0].max_seen, 6u);
  // 1 arrives: the frontier drains 2, 3 and 4; only 5 and 6 stay missing.
  m.note_delivered(6, 1);
  m.note_delivered(6, 3);  // a repeat below the frontier changes nothing
  gaps = m.stale_gaps(600.0);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].next_seq, 5u);
  EXPECT_EQ(gaps[0].max_seen, 6u);
  // 6 waits ahead of 5, then 5 drains it; the next tick closes the gap.
  m.note_delivered(6, 6);
  m.note_delivered(6, 5);
  EXPECT_TRUE(m.gap_stale(6, 600.0));  // timers move only at ticks
  m.tick(700.0);
  EXPECT_FALSE(m.gap_stale(6, 100000.0));
  EXPECT_TRUE(m.stale_gaps(100000.0).empty());
  // The frontier is at 6: the next in-order delivery opens no gap.
  m.note_delivered(6, 7);
  m.tick(800.0);
  EXPECT_EQ(m.stale_gap_count(100000.0), 0u);
  EXPECT_EQ(m.horizon(), (Horizon{{6, 7}}));
}

TEST(HealthMonitor, ShortfallAccountsPerOverlay) {
  HealthMonitor m;
  m.note_overlay_shortfall(0);
  m.note_overlay_shortfall(2);
  m.note_overlay_shortfall(2);
  EXPECT_EQ(m.overlay_shortfall(0), 1u);
  EXPECT_EQ(m.overlay_shortfall(1), 0u);
  EXPECT_EQ(m.overlay_shortfall(2), 2u);
  EXPECT_EQ(m.total_overlay_shortfall(), 3u);
}

TEST(HealthMonitor, DegradationScoreFormula) {
  HealthMonitor m;
  EXPECT_DOUBLE_EQ(m.degradation_score(2.0, 0.0), 0.0);
  m.note_removed();
  m.note_removed();                 // 2 removals -> +2
  m.set_failed_repairs(3);          // weight 2 -> +6
  m.note_trs_give_up();             // soft signal -> +0.5
  m.note_seen(4, 2);                // stale by t=600 -> +0.5
  m.tick(0.0);
  EXPECT_DOUBLE_EQ(m.degradation_score(2.0, 600.0), 2.0 + 6.0 + 0.5 + 0.5);
  // The failed-repair weight is the caller's knob, not monitor state.
  EXPECT_DOUBLE_EQ(m.degradation_score(0.5, 600.0), 2.0 + 1.5 + 0.5 + 0.5);
  // Before the gap is stale it contributes nothing.
  EXPECT_DOUBLE_EQ(m.degradation_score(2.0, 599.0), 2.0 + 6.0 + 0.5);
}

TEST(HealthMonitor, EpochAdvanceResetsEpisodeButKeepsCumulativeCounters) {
  HealthMonitor m;
  m.note_removed();
  m.set_failed_repairs(2);
  m.note_gap_pull();
  m.note_trs_give_up();
  m.note_overlay_shortfall(1);
  m.note_seen(7, 3);
  m.tick(0.0);
  ASSERT_GT(m.degradation_score(2.0, 1000.0), 0.0);

  m.on_epoch_advanced();
  // Episode state (what motivated the view change) is wiped...
  EXPECT_DOUBLE_EQ(m.degradation_score(2.0, 1000.0), 0.0);
  EXPECT_EQ(m.removed_since_epoch(), 0u);
  EXPECT_EQ(m.failed_repairs(), 0u);
  EXPECT_EQ(m.stale_gap_count(100000.0), 0u);
  // ...while lifetime statistics survive for reporting.
  EXPECT_EQ(m.gap_pulls(), 1u);
  EXPECT_EQ(m.trs_give_ups(), 1u);
  EXPECT_EQ(m.total_overlay_shortfall(), 1u);
  // Sequence progress survives too: the next tick reopens the gap, aged
  // from that tick.
  EXPECT_EQ(m.horizon(), (Horizon{{7, 3}}));
  m.tick(1000.0);
  EXPECT_FALSE(m.gap_stale(7, 1599.0));
  EXPECT_TRUE(m.gap_stale(7, 1600.0));
}

}  // namespace
}  // namespace hermes::hermes_proto
