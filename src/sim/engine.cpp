#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "support/thread_pool.hpp"

namespace hermes::sim {

namespace {

constexpr SimTime kInfTime = std::numeric_limits<SimTime>::infinity();

// The std heap algorithms keep the greatest element at the front, so
// ordering by "later" keeps the min-(when, seq) event there.
constexpr auto later = [](const auto& a, const auto& b) {
  if (a.when != b.when) return a.when > b.when;
  return a.seq > b.seq;
};

}  // namespace

// ---------------------------------------------------------------------------
// Lane: one event heap over a chunked slab (see header comment for the
// design).
// ---------------------------------------------------------------------------

SimTime Engine::Lane::next_when() const {
  return heap_.empty() ? kInfTime : heap_.front().when;
}

void Engine::Lane::enqueue(SimTime when, std::uint64_t seq, EventFn&& fn) {
  std::uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    if (slots_ == chunks_.size() * kSlabChunkSlots) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    s = slots_++;
  }
  slot(s) = std::move(fn);
  heap_.push_back(EventRef{when, seq, s});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

Engine::EventRef Engine::Lane::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const EventRef ref = heap_.back();
  heap_.pop_back();
  return ref;
}

void Engine::Lane::run(std::uint32_t s) {
  // The slot is neither on the free list nor in a chunk that can move, so
  // events this one schedules into the lane take other slots.
  EventFn& fn = slot(s);
  fn();
  fn.reset();
  free_.push_back(s);
}

void Engine::Lane::clear_events() {
  for (const EventRef& e : heap_) {
    slot(e.slot).reset();
    free_.push_back(e.slot);
  }
  heap_.clear();
  for (auto& box : outbox) box.clear();
  deferred.clear();
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine() { lanes_.resize(1); }  // the control lane
Engine::~Engine() = default;

Engine::ExecContext& Engine::tls() {
  static thread_local ExecContext ctx;
  return ctx;
}

SimTime Engine::now() const {
  const ExecContext& c = tls();
  return c.engine == this && c.draining ? lanes_[c.shard].now : now_;
}

bool Engine::in_shard_drain() const {
  const ExecContext& c = tls();
  return c.engine == this && c.draining;
}

std::uint32_t Engine::context_shard() const {
  const ExecContext& c = tls();
  return c.engine == this ? c.shard : kNoShard;
}

void Engine::configure_shards(std::size_t shards, double lookahead_ms) {
  HERMES_REQUIRE(shard_count() == 0);
  HERMES_REQUIRE(shards >= 1 && lookahead_ms > 0.0);
  HERMES_REQUIRE(pending() == 0 && control().next_local_ == 0);
  lookahead_ = lookahead_ms;
  lanes_.resize(shards + 1);
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i].seq_tag = static_cast<std::uint64_t>(i) << kSeqShardShift;
    lanes_[i].outbox.resize(lanes_.size());  // per destination lane
  }
}

void Engine::set_workers(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_ = std::max<std::size_t>(1, std::min(workers, shard_count()));
  pool_ = workers_ > 1 ? std::make_unique<ThreadPool>(workers_ - 1) : nullptr;
}

void Engine::schedule(SimTime delay, EventFn fn) {
  HERMES_REQUIRE(delay >= 0.0);
  schedule_at(now() + delay, std::move(fn));
}

void Engine::schedule_at(SimTime when, EventFn fn) {
  const ExecContext& c = tls();
  if (c.engine == this && c.shard != kNoShard) {
    Lane& ln = lanes_[c.shard];
    if (c.draining) {
      HERMES_REQUIRE(when >= ln.now);
      ln.enqueue(when, ln.next_seq(), std::move(fn));
    } else {
      // Quiescent ShardScope (setup, control events, deferred replay): the
      // lane clock may sit past the caller's clock inside the last window;
      // clamping keeps the insert legal and is deterministic (the lane
      // clock is itself a function of simulation content only).
      HERMES_REQUIRE(when >= now_);
      ln.enqueue(std::max(when, ln.now), ln.next_seq(), std::move(fn));
    }
    return;
  }
  HERMES_REQUIRE(when >= now_);
  Lane& ctl = control();
  ctl.enqueue(when, ctl.next_seq(), std::move(fn));
}

void Engine::schedule_cross(std::uint32_t shard, SimTime when, EventFn fn) {
  HERMES_REQUIRE(shard < shard_count());
  const ExecContext& c = tls();
  if (c.engine == this && c.draining) {
    Lane& src = lanes_[c.shard];
    if (shard == c.shard) {
      HERMES_REQUIRE(when >= src.now);
      src.enqueue(when, src.next_seq(), std::move(fn));
      return;
    }
    HERMES_REQUIRE(when >= src.now + lookahead_ &&
                   "cross-shard event below the lookahead horizon");
    src.outbox[shard].emplace_back(when, src.next_seq(), std::move(fn));
    return;
  }
  // Quiescent context: direct insert. The seq comes from the context shard
  // when one is active (ShardScope), the control lane otherwise.
  Lane& src = (c.engine == this && c.shard != kNoShard) ? lanes_[c.shard]
                                                        : control();
  Lane& dst = lanes_[shard];
  dst.enqueue(std::max(when, dst.now), src.next_seq(), std::move(fn));
}

void Engine::schedule_global(SimTime delay, EventFn fn) {
  HERMES_REQUIRE(delay >= 0.0);
  schedule_global_at(now() + delay, std::move(fn));
}

void Engine::schedule_global_at(SimTime when, EventFn fn) {
  const ExecContext& c = tls();
  if (c.engine == this && c.draining) {
    // The earliest quiescent point is the current window bound; deferring
    // to it is deterministic (the bound is a function of event content).
    Lane& ln = lanes_[c.shard];
    const SimTime w = std::max(when, window_bound_);
    ln.outbox[shard_count()].emplace_back(w, ln.next_seq(), std::move(fn));
    return;
  }
  HERMES_REQUIRE(when >= now_);
  Lane& ctl = control();
  ctl.enqueue(when, ctl.next_seq(), std::move(fn));
}

void Engine::defer(EventFn fn) {
  const ExecContext& c = tls();
  if (c.engine == this && c.draining) {
    Lane& ln = lanes_[c.shard];
    ln.deferred.emplace_back(ln.now, ln.cur_seq, ln.fx_idx++, std::move(fn));
    return;
  }
  fn();
}

Engine::ShardScope::ShardScope(Engine& engine, std::uint32_t shard) {
  HERMES_REQUIRE(shard < engine.shard_count());
  ExecContext& c = tls();
  prev_engine_ = c.engine;
  prev_shard_ = c.shard;
  prev_draining_ = c.draining;
  c = ExecContext{&engine, shard, false};
}

Engine::ShardScope::~ShardScope() {
  tls() = ExecContext{prev_engine_, prev_shard_, prev_draining_};
}

std::size_t Engine::run() { return run_until(kInfTime); }

std::size_t Engine::run_until(SimTime deadline) {
  std::size_t executed = 0;
  Lane& ctl = control();
  while (true) {
    SimTime t0 = kInfTime;
    for (const Lane& ln : lanes_) t0 = std::min(t0, ln.next_when());
    if (t0 == kInfTime || t0 > deadline) break;
    const SimTime bound =
        std::min({t0 + lookahead_, ctl.next_when(), deadline});
    window_bound_ = bound;

    // Parallel drain + mailbox merge, to a fixpoint: a merged cross event
    // can land inside the window only when its latency equals the
    // lookahead exactly, and events it spawns land strictly later, so the
    // loop runs at most a couple of rounds.
    do {
      drain_lanes(bound);
    } while (flush_outboxes(bound));
    flush_deferred();
    for (Lane& ln : lanes_) {
      executed += ln.executed;
      ln.executed = 0;
    }
    now_ = bound;

    if (ctl.next_when() <= bound) {
      const EventRef ref = ctl.pop();
      now_ = ref.when;
      ctl.run(ref.slot);
      ++executed;
      now_ = bound;
    }
  }
  if (deadline != kInfTime && now_ < deadline) now_ = deadline;
  return executed;
}

template <typename Fn>
void Engine::for_each_lane(std::size_t n, const Fn& fn) {
  if (pool_ != nullptr) {
    pool_->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

void Engine::drain_lanes(SimTime bound) {
  for_each_lane(shard_count(), [this, bound](std::size_t i) {
    Lane& ln = lanes_[i];
    if (ln.next_when() > bound) return;
    ExecContext& c = tls();
    const ExecContext prev = c;
    c = ExecContext{this, static_cast<std::uint32_t>(i), true};
    while (ln.next_when() <= bound) {
      const EventRef ref = ln.pop();
      ln.now = ref.when;
      ln.cur_seq = ref.seq;
      ln.fx_idx = 0;
      ln.run(ref.slot);
      ++ln.executed;
    }
    c = prev;
  });
}

bool Engine::flush_outboxes(SimTime bound) {
  const std::size_t R = shard_count();
  // One task per destination lane, the control lane (R) included: task d
  // writes only lane d and column d of the outboxes, and takes the column
  // in source order, so lane d's enqueue sequence is the sequential one.
  for_each_lane(R + 1, [this, R, bound](std::size_t dst) {
    Lane& d = lanes_[dst];
    bool in_window = false;
    for (std::size_t src = 0; src < R; ++src) {
      std::vector<CrossEvent>& box = lanes_[src].outbox[dst];
      for (CrossEvent& ev : box) {
        HERMES_DCHECK(ev.when >= d.now);
        in_window = in_window || ev.when <= bound;
        d.enqueue(ev.when, ev.seq, std::move(ev.fn));
      }
      box.clear();
    }
    d.merged_in_window = in_window;
  });
  // The control lane's events wait for step 5 of the window loop and never
  // call for another drain.
  bool redrain = false;
  for (std::size_t dst = 0; dst < R; ++dst) {
    redrain = redrain || lanes_[dst].merged_in_window;
  }
  return redrain;
}

void Engine::flush_deferred() {
  fx_scratch_.clear();
  for (Lane& ln : lanes_) {
    for (DeferredFx& fx : ln.deferred) fx_scratch_.push_back(std::move(fx));
    ln.deferred.clear();
  }
  if (fx_scratch_.empty()) return;
  // (when, seq) is the recording event (unique), idx its observation
  // counter: the sort key reproduces the observation order of a sequential
  // (when, seq) execution.
  std::sort(fx_scratch_.begin(), fx_scratch_.end(),
            [](const DeferredFx& a, const DeferredFx& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.idx < b.idx;
            });
  const SimTime saved = now_;
  for (DeferredFx& fx : fx_scratch_) {
    now_ = fx.when;
    fx.fn();
    fx.fn.reset();
  }
  now_ = saved;
  fx_scratch_.clear();
}

std::size_t Engine::pending() const {
  std::size_t total = 0;
  for (const Lane& ln : lanes_) total += ln.heap_.size();
  return total;
}

std::size_t Engine::pool_capacity() const {
  std::size_t total = 0;
  for (const Lane& ln : lanes_) total += ln.slots_;
  return total;
}

void Engine::clear() {
  for (Lane& ln : lanes_) ln.clear_events();
}

}  // namespace hermes::sim
