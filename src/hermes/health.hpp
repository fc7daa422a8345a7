// Per-node live degradation tracking (self-healing layer).
//
// The HealthMonitor is the "detect" third of the detect -> repair ->
// recover loop (Sections VI-C/VII): every HermesNode feeds it the signals
// its own vantage point produces — per-origin sequence progress, gap pulls
// issued through the fallback path, per-overlay delivery shortfall
// (transactions that had to be recovered off-overlay), TRS round-trip
// give-ups, failed local repairs and departed/excluded peers — and the
// monitor folds them into a single degradation score. Committee members
// compare that score against HermesConfig::view_change_threshold to decide
// when local repair is no longer enough and a full epoch rebuild is due.
//
// The monitor is pure bookkeeping: it sends nothing, consumes no
// randomness, and is only read when self-healing is enabled, so an
// instance embedded in a node with self-healing off cannot perturb the
// message trace.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "net/graph.hpp"
#include "sim/engine.hpp"

namespace hermes::hermes_proto {

// A delivery gap open this long is stale: it counts toward the
// degradation score and triggers a gap pull, at most once per origin per
// period.
inline constexpr double kGapPullAfterMs = 600.0;

class HealthMonitor {
 public:
  // --- feeds -------------------------------------------------------------

  // Per-origin sequence progress, the node's only record of it. `seq` of
  // `origin` was delivered here: the contiguous frontier advances over it
  // and over the out-of-order deliveries it catches up with; a sequence
  // past a hole waits in the origin's ahead set.
  void note_delivered(net::NodeId origin, std::uint64_t seq);
  // Evidence that `origin` reached `seq` (a delivery, or a peer's horizon
  // from a digest or catch-up): raises the highest sequence seen.
  void note_seen(net::NodeId origin, std::uint64_t seq);
  // Health tick: opens the gap timer of every origin whose highest seen
  // sequence is past its frontier, and closes it once the hole fills.
  // Timers move only here, so a gap ages from the tick that saw it.
  void tick(sim::SimTime now);

  // A transaction reached this node off its assigned overlay (fallback or
  // gap pull): the overlay under-delivered.
  void note_overlay_shortfall(std::size_t overlay_index);

  void note_gap_pull() { ++gap_pulls_; }

  void note_trs_give_up() {
    ++trs_give_ups_;
    ++trs_give_ups_since_epoch_;
  }

  // A peer was marked departed (f+1 departure reports) or globally
  // excluded (f+1 accusations).
  void note_removed() { ++removed_since_epoch_; }

  // Absolute count of removal applications the current local-repair state
  // could not absorb (recomputed on every repair rebuild).
  void set_failed_repairs(std::size_t failures) { failed_repairs_ = failures; }

  // A view change wipes the degradation that motivated it: the new
  // generation starts with a clean score (this is what gives the
  // hysteresis loop a lower resting point to re-arm against). Gap timers
  // restart at the next tick; sequence progress is kept.
  void on_epoch_advanced();

  // --- queries -----------------------------------------------------------

  struct Gap {
    net::NodeId origin = 0;
    std::uint64_t next_seq = 0;  // first missing sequence number
    std::uint64_t max_seen = 0;
  };

  // (origin, highest sequence seen) for every origin known here, in
  // ascending origin order: the digest and catch-up horizon.
  std::vector<std::pair<net::NodeId, std::uint64_t>> horizon() const;

  // Gaps that have stayed open for at least kGapPullAfterMs.
  std::vector<Gap> stale_gaps(sim::SimTime now) const;
  bool gap_stale(net::NodeId origin, sim::SimTime now) const;
  std::size_t stale_gap_count(sim::SimTime now) const;

  std::size_t gap_pulls() const { return gap_pulls_; }
  std::size_t trs_give_ups() const { return trs_give_ups_; }
  std::size_t failed_repairs() const { return failed_repairs_; }
  std::size_t removed_since_epoch() const { return removed_since_epoch_; }
  std::size_t overlay_shortfall(std::size_t overlay_index) const;
  std::size_t total_overlay_shortfall() const;

  // Cumulative degradation: departures/exclusions since the last view
  // change count 1 each, repairs the local pass could not absorb count
  // `failed_repair_weight` each, and soft signals (stale gaps, TRS
  // give-ups since the last view change) count half — they degrade service
  // but are individually recoverable.
  double degradation_score(double failed_repair_weight,
                           sim::SimTime now) const;

 private:
  struct Progress {
    std::uint64_t contiguous = 0;  // highest gap-free sequence delivered
    std::uint64_t max_seen = 0;    // highest sequence with evidence
    std::set<std::uint64_t> ahead;  // delivered past the frontier
    sim::SimTime gap_since = -1.0;  // < 0: no open gap
  };

  // Ordered maps: health ticks iterate these to emit messages, and the
  // iteration order must be reproducible run over run.
  std::map<net::NodeId, Progress> origins_;
  std::map<std::size_t, std::size_t> shortfall_;
  std::size_t gap_pulls_ = 0;
  std::size_t trs_give_ups_ = 0;
  std::size_t trs_give_ups_since_epoch_ = 0;
  std::size_t failed_repairs_ = 0;
  std::size_t removed_since_epoch_ = 0;
};

}  // namespace hermes::hermes_proto
