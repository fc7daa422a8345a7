// Background epoch pipeline (churn-resilience layer).
//
// Membership changes (admitted joins, f+1-witnessed departures) land here
// as MembershipDeltas. Below the hysteresis threshold each delta is
// absorbed incrementally — every node has already spliced it into its
// routing trees via local repair / incremental join placement, so the
// pipeline merely counts it. Once enough deltas accumulate, a warm-started
// re-anneal of epoch e+1 is kicked off "in the background": the anneal is
// modeled as kAnnealMs of simulated wall-time during which epoch e keeps
// serving traffic; when the timer fires the install callback builds the
// new overlay set (on the builder thread pool) and performs the quiescent
// handoff inside the same barrier-serialized control event, so sharded-sim
// determinism holds. If further churn arrived mid-anneal the pipelined
// epoch would be stale on arrival — it is invalidated and retried with
// exponential backoff, up to a retry cap after which it installs anyway
// and folds whatever accumulated (membership state is absolute, so nothing
// is lost; the next delta starts a fresh cycle).
//
// The class consumes no randomness and no wall clock; every method runs
// inside engine-global control events, so it needs no locking. That
// contract is machine-checked: the delta queue is marked
// HERMES_GUARDED_BY_QUIESCENCE, so hermeslint's quiescence-safety rule
// rejects any call path from a lane-context message handler into a method
// touching it that does not pass through Engine::defer / schedule_global.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "net/graph.hpp"
#include "support/thread_annotations.hpp"

namespace hermes::hermes_proto {

struct MembershipDelta {
  net::NodeId node = 0;
  bool join = false;  // false: departure
};

class EpochPipeline {
 public:
  // Pacing: a re-anneal starts once kHysteresis deltas are queued (a
  // short hysteresis, so storm waves trigger pipelined installs rather
  // than piling up), and the anneal takes kAnnealMs of sim time.
  static constexpr std::size_t kHysteresis = 2;
  static constexpr double kAnnealMs = 250.0;
  // The delta queue drops its oldest entry past kQueueCap (the next full
  // re-anneal still covers it: membership state is absolute). An
  // invalidated anneal retries after kAnnealMs * kRetryBackoff^retries and
  // installs anyway after kMaxRetries, so the longest retry waits
  // 250 * 2^3 = 2,000 ms.
  static constexpr std::size_t kQueueCap = 64;
  static constexpr double kRetryBackoff = 2.0;
  static constexpr std::size_t kMaxRetries = 3;
  static_assert(kMaxRetries == 3 &&
                    kAnnealMs * kRetryBackoff * kRetryBackoff * kRetryBackoff ==
                        2000.0,
                "the comment above states the longest retry");

  // schedule(delay_ms, fn): run fn after delay_ms of sim time inside a
  // barrier-serialized global control event (Engine::schedule_global).
  // install(deltas): build + certify + install epoch e+1 from the folded
  // deltas; called inside the scheduled control event.
  using ScheduleFn = std::function<void(double, std::function<void()>)>;
  using InstallFn = std::function<void(const std::vector<MembershipDelta>&)>;

  EpochPipeline(ScheduleFn schedule, InstallFn install)
      : schedule_(std::move(schedule)), install_(std::move(install)) {}

  // Must be called from inside a global control event.
  void on_membership_change(const MembershipDelta& delta);

  bool annealing() const { return annealing_; }
  std::size_t queued() const { return queue_.size(); }
  std::size_t pipelined_installs() const { return pipelined_installs_; }
  std::size_t invalidations() const { return invalidations_; }
  std::size_t absorbed_incrementally() const { return absorbed_; }
  std::size_t dropped_deltas() const { return dropped_; }

 private:
  void start_anneal();
  void on_anneal_done();

  ScheduleFn schedule_;
  InstallFn install_;

  std::deque<MembershipDelta> queue_ HERMES_GUARDED_BY_QUIESCENCE;
  bool annealing_ = false;
  std::size_t snapshot_size_ = 0;  // queue size when the anneal started
  std::size_t retries_ = 0;

  std::size_t pipelined_installs_ = 0;
  std::size_t invalidations_ = 0;
  std::size_t absorbed_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace hermes::hermes_proto
