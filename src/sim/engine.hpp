// Deterministic discrete-event simulation engine, sharded by region for
// parallel execution.
//
// All protocol evaluation in this repository runs on this engine: time is
// virtual (milliseconds as double), events execute in (time, insertion
// sequence) order, and every random choice comes from seeded Rng streams,
// so a run is a pure function of its seed.
//
// ---------------------------------------------------------------------------
// The (when, seq) total order
// ---------------------------------------------------------------------------
// Every event carries a 64-bit sequence number and executes in ascending
// (when, seq) order. Sequence numbers are *shard-stable*: the high
// kSeqShardBits bits are the id of the shard (lane) that allocated the
// event, the low bits a per-shard counter:
//
//     seq = (lane_id << kSeqShardShift) | per_lane_counter
//
// so a seq never depends on how many workers ran or how lanes interleaved
// — only on the allocating shard and that shard's own scheduling order,
// both of which are functions of the simulation content alone. Among
// same-time events this makes the tie-break deterministic across worker
// counts: same-shard events keep FIFO scheduling order (counter), events
// from different shards order by shard id, and control events (allocated
// by the control lane, which has the highest lane id) order after all
// shard events at the same timestamp.
//
// ---------------------------------------------------------------------------
// Lanes and the window loop
// ---------------------------------------------------------------------------
// A new engine has one lane, the control lane. configure_shards(S, L) adds
// S region lanes in front of it (ids 0..S-1; the control lane becomes id
// S). Each lane owns a private event heap, slab pool, clock and seq
// counter; run() and run_until() advance the simulation in conservative
// lookahead windows:
//
//   1. T0    = earliest pending timestamp across all lanes,
//      bound = min(T0 + L, next control event, deadline).
//   2. Every region lane drains its events with when <= bound — in
//      parallel on the support/thread_pool when workers > 1, sequentially
//      otherwise. The executed events are identical either way; only
//      wall-clock differs.
//   3. Cross-shard sends enqueued during (2) were parked in per-(src,dst)
//      outboxes (single-producer by phase separation: lanes write only
//      their own outboxes during a drain, and outboxes are flushed only
//      between drains). They are now merged into the destination heaps,
//      ordered by (when, seq) with the *source*-assigned seq, and lanes
//      re-drain if any merged event lands inside the window (possible only
//      when a cross latency equals L exactly; L > 0 bounds the fixpoint).
//   4. Deferred global effects (see defer()) recorded during (2) replay in
//      merged (when, seq, idx) order — the order a sequential (when, seq)
//      execution would have observed them in.
//   5. If the next control event sits exactly at the window bound, exactly
//      one control event runs with all lanes quiescent. Control events
//      (schedule_global / schedule() outside any shard context) may touch
//      any cross-shard state: crash flags, partitions, epoch advances.
//
// An engine never given region lanes (the engine's own unit tests) runs
// the same loop with only the control lane, so every window runs one
// control event. Every Network shards its engine by region.
//
// Cross-shard inserts below the lookahead horizon are a correctness error
// (they could reorder against events a peer lane already executed) and trip
// a HERMES_REQUIRE instead of silently reordering.
//
// Because every step above is a function of simulation content only, the
// executed event sequence — and therefore every trace, hash and counter —
// is bit-identical for any worker count, including workers == 1, which
// runs the same windowed schedule on the calling thread alone.
//
// Hot-path design (the engine executes hundreds of millions of events in a
// paper-scale run):
//   - Callbacks are EventFn records with a small-buffer optimization: a
//     capture up to kInlineBytes (enough for a full Network delivery or
//     deferred-tap closure) lives inline in a slab slot, so steady-state
//     scheduling performs no heap allocation. Slots are pooled and
//     recycled through a free list; clear() keeps the pool warm for the
//     next repetition.
//   - Every lane, the control lane included, orders its events in one
//     binary min-heap of POD (when, seq, slot) refs over its slab pool.
//     Seqs are unique, so the heap pops exactly the (when, seq) total
//     order for any insertion order, FIFO among same-time events included.
//     Lanes stay shallow: at seed 42 the deepest region lane of the
//     benchmark workloads peaks at 18,438 pending events
//     (narwhal-frontrun; 2,719 on steady-2k, 31,079 on steady-2k at
//     N = 30,000), and the control lane holds at most one event per
//     scheduled arrival, so a 24-byte ref heap stays cache-resident.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace hermes {
class ThreadPool;
}  // namespace hermes

namespace hermes::sim {

using SimTime = double;  // milliseconds

// Move-only callable with inline storage for small captures; larger
// callables fall back to one heap allocation. Invoking an empty EventFn is
// a programming error.
class EventFn {
 public:
  // Sized for the deferred send-tap closure (Network* + Message + SimTime)
  // plus headroom for the protocol timer lambdas.
  static constexpr std::size_t kInlineBytes = 64;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(
          // hermeslint: allow(raw-owning-new) pool internals: SBO overflow slot owns the heap Fn; HeapOps::destroy frees it
          new Fn(std::forward<F>(f)));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    HERMES_REQUIRE(ops_ != nullptr);
    ops_->invoke(storage_);
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs into dst from src, then destroys src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* dst, void* src) {
      Fn* s = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn*& slot(void* p) { return *static_cast<Fn**>(p); }
    static void invoke(void* p) { (*slot(p))(); }
    static void relocate(void* dst, void* src) {
      ::new (dst) Fn*(slot(src));
    }
    // hermeslint: allow(raw-owning-new) pool internals: releases the SBO overflow slot allocated in EventFn's ctor
    static void destroy(void* p) { delete slot(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class Engine {
 public:
  using Callback = EventFn;

  static constexpr std::uint32_t kNoShard = 0xffffffffu;
  // Seq layout: high bits carry the allocating lane id (see file comment).
  static constexpr unsigned kSeqShardShift = 48;

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Current simulation time: the executing lane's clock while that lane is
  // draining a window, the global clock otherwise.
  SimTime now() const;

  // Schedules `fn` to run `delay` ms from now (delay >= 0). The event lands
  // in the context shard (the lane executing the caller, or the active
  // ShardScope); without any shard context it lands in the control lane
  // and runs with all lanes quiescent.
  void schedule(SimTime delay, EventFn fn);
  void schedule_at(SimTime when, EventFn fn);

  // --- Region lanes -------------------------------------------------------

  // Adds `shards` region lanes in front of the control lane, with
  // conservative lookahead `lookahead_ms` (> 0): a cross-shard insert must
  // land at least lookahead_ms after the sending lane's clock. Must be
  // called once, on an empty engine, before anything is scheduled.
  void configure_shards(std::size_t shards, double lookahead_ms);
  // Region lanes; 0 until configure_shards.
  std::size_t shard_count() const { return lanes_.size() - 1; }
  double lookahead_ms() const { return lookahead_; }

  // Worker threads for the parallel drain, at most one per region lane.
  // 1 (default) drains the windows sequentially on the calling thread,
  // with a result bit-identical to any other count; 0 resolves to the
  // hardware concurrency.
  void set_workers(std::size_t workers);
  std::size_t workers() const { return workers_; }

  // Schedules into an explicit shard at absolute time `when`. From a lane
  // currently draining, a cross-shard destination must respect the
  // lookahead horizon (when >= lane now + lookahead_ms) — violations trip
  // HERMES_REQUIRE rather than silently reordering — and the event is
  // parked in the lane's outbox until the window barrier. From control or
  // idle context the insert is direct (lanes are quiescent) and `when` is
  // clamped to the destination lane's clock.
  void schedule_cross(std::uint32_t shard, SimTime when, EventFn fn);

  // Schedules a control event: it executes with every lane quiescent and
  // may touch cross-shard state. From a draining lane the event is
  // deferred to at least the current window bound (the earliest quiescent
  // point); `delay` is measured from the caller's clock.
  void schedule_global(SimTime delay, EventFn fn);
  void schedule_global_at(SimTime when, EventFn fn);

  // Defers a global side effect (trace taps, tracker updates, shared-map
  // writes) out of the parallel drain: from a draining lane, `fn` is
  // recorded with the executing event's (when, seq) plus a per-event
  // observation index and replayed at the window barrier in merged
  // (when, seq, idx) order — the observation order of the sequential
  // execution; from any other context `fn` runs immediately.
  void defer(EventFn fn);

  // True while the calling thread is draining a lane's window (parallel or
  // sequential); global side effects must be deferred in this state.
  bool in_shard_drain() const;
  // The context shard: the draining lane or the active ShardScope on this
  // thread, kNoShard otherwise.
  std::uint32_t context_shard() const;

  // Routes schedule() calls on the current thread to a fixed shard while
  // the engine is quiescent — used to run node entry points (on_start,
  // submit) from control/setup code so their timers land in the node's own
  // lane. Restores the previous context on destruction.
  class ShardScope {
   public:
    ShardScope(Engine& engine, std::uint32_t shard);
    ~ShardScope();
    ShardScope(const ShardScope&) = delete;
    ShardScope& operator=(const ShardScope&) = delete;

   private:
    Engine* prev_engine_;
    std::uint32_t prev_shard_;
    bool prev_draining_;
  };

  // Runs events until the queue drains or `max_events` fire. Returns the
  // number of events executed. The cap is checked only at window barriers,
  // so a window of region-lane events may finish past it.
  std::size_t run(std::size_t max_events = SIZE_MAX);
  // Runs events with timestamp <= deadline.
  std::size_t run_until(SimTime deadline);

  bool empty() const { return pending() == 0; }
  std::size_t pending() const;

  // Drops all pending events. The clock and the FIFO sequence counters are
  // deliberately NOT rewound: events scheduled after a clear() still order
  // behind everything scheduled before it, and now() stays monotonic, so a
  // clear() mid-run cannot reorder a subsequently shared schedule. The
  // event pools are retained for reuse. Benchmark repetitions that want a
  // fresh, seed-deterministic engine should call reset().
  void clear();

  // clear() plus rewinding now() to 0 and the sequence counters to their
  // initial state: the engine becomes indistinguishable from a freshly
  // configured one, except that the warmed event pools are kept.
  void reset();

  // Number of slab slots ever allocated across lanes (regression hook:
  // repetitions over a bounded-pending workload must not grow the pool).
  std::size_t pool_capacity() const;

 private:
  struct EventRef {
    SimTime when;
    std::uint64_t seq;  // shard-stable tie-breaker, see file comment
    std::uint32_t slot;
  };

  // A cross-shard event in flight between a drain and the window barrier.
  struct CrossEvent {
    SimTime when;
    std::uint64_t seq;  // allocated by the source lane
    EventFn fn;
  };

  // A deferred global effect: (when, seq) of the event that recorded it
  // plus the per-event observation index.
  struct DeferredFx {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t idx;
    EventFn fn;
  };

  // One lane: a private event heap, slab pool, clock and seq counter.
  struct Lane {
    // --- identity / clocks ---
    std::uint64_t seq_tag = 0;    // lane_id << kSeqShardShift
    std::uint64_t next_local_ = 0;
    SimTime now = 0.0;
    std::uint64_t cur_seq = 0;    // seq of the event currently executing
    std::uint32_t fx_idx = 0;     // per-event defer() counter
    std::size_t executed = 0;     // events run in the current drain phase

    // --- cross-window buffers (written only by this lane's drain) ---
    std::vector<std::vector<CrossEvent>> outbox;  // per destination lane
    std::vector<DeferredFx> deferred;

    // --- events: min-(when, seq) heap of refs into the slab pool ---
    std::vector<EventRef> heap_;
    std::vector<EventFn> pool_;
    std::vector<std::uint32_t> free_;

    std::uint64_t next_seq() { return seq_tag | next_local_++; }
    // Time of the earliest pending event; infinity when the lane is empty.
    SimTime next_when() const;
    void enqueue(SimTime when, std::uint64_t seq, EventFn fn);
    EventRef extract_min(EventFn& fn_out);
    void clear_events();
  };

  struct ExecContext {
    Engine* engine = nullptr;
    std::uint32_t shard = kNoShard;
    bool draining = false;
  };
  static ExecContext& tls();

  Lane& control() { return lanes_.back(); }

  std::size_t run_windows(SimTime deadline, std::size_t max_events);
  void drain_lanes(SimTime bound);
  bool flush_outboxes(SimTime bound);
  void flush_deferred();

  double lookahead_ = 0.0;
  std::size_t workers_ = 1;
  SimTime now_ = 0.0;
  SimTime window_bound_ = 0.0;  // current window's bound during a drain

  // The region lanes, then the control lane, whose seq tag is therefore
  // the highest lane id: control orders after shard events at equal times.
  std::vector<Lane> lanes_;

  std::vector<DeferredFx> fx_scratch_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace hermes::sim
