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
// Lane: one event heap over a slab pool (see header comment for the design).
// ---------------------------------------------------------------------------

SimTime Engine::Lane::next_when() const {
  return heap_.empty() ? kInfTime : heap_.front().when;
}

void Engine::Lane::enqueue(SimTime when, std::uint64_t seq, EventFn fn) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    pool_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(std::move(fn));
  }
  heap_.push_back(EventRef{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

Engine::EventRef Engine::Lane::extract_min(EventFn& fn_out) {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const EventRef ref = heap_.back();
  heap_.pop_back();
  fn_out = std::move(pool_[ref.slot]);
  free_.push_back(ref.slot);
  return ref;
}

void Engine::Lane::clear_events() {
  for (const EventRef& e : heap_) {
    pool_[e.slot].reset();
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
    src.outbox[shard].push_back({when, src.next_seq(), std::move(fn)});
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
    ln.outbox[shard_count()].push_back({w, ln.next_seq(), std::move(fn)});
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
    ln.deferred.push_back({ln.now, ln.cur_seq, ln.fx_idx++, std::move(fn)});
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

std::size_t Engine::run(std::size_t max_events) {
  return run_windows(kInfTime, max_events);
}

std::size_t Engine::run_until(SimTime deadline) {
  return run_windows(deadline, SIZE_MAX);
}

std::size_t Engine::run_windows(SimTime deadline, std::size_t max_events) {
  std::size_t executed = 0;
  Lane& ctl = control();
  while (executed < max_events) {
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
      EventFn fn;
      now_ = ctl.extract_min(fn).when;
      fn();
      ++executed;
      now_ = bound;
    }
  }
  if (deadline != kInfTime && now_ < deadline) now_ = deadline;
  return executed;
}

void Engine::drain_lanes(SimTime bound) {
  const auto drain_one = [this, bound](std::size_t i) {
    Lane& ln = lanes_[i];
    if (ln.next_when() > bound) return;
    ExecContext& c = tls();
    const ExecContext prev = c;
    c = ExecContext{this, static_cast<std::uint32_t>(i), true};
    EventFn fn;
    while (ln.next_when() <= bound) {
      const EventRef ref = ln.extract_min(fn);
      ln.now = ref.when;
      ln.cur_seq = ref.seq;
      ln.fx_idx = 0;
      fn();
      fn.reset();
      ++ln.executed;
    }
    c = prev;
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(shard_count(), drain_one);
  } else {
    for (std::size_t i = 0; i < shard_count(); ++i) drain_one(i);
  }
}

bool Engine::flush_outboxes(SimTime bound) {
  bool redrain = false;
  const std::size_t R = shard_count();
  for (std::size_t src = 0; src < R; ++src) {
    // Destination R is the control lane: its events wait for step 5 of
    // the window loop and never call for another drain.
    for (std::size_t dst = 0; dst <= R; ++dst) {
      std::vector<CrossEvent>& box = lanes_[src].outbox[dst];
      Lane& d = lanes_[dst];
      for (CrossEvent& ev : box) {
        HERMES_DCHECK(ev.when >= d.now);
        if (dst < R && ev.when <= bound) redrain = true;
        d.enqueue(ev.when, ev.seq, std::move(ev.fn));
      }
      box.clear();
    }
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
  for (const Lane& ln : lanes_) total += ln.pool_.size();
  return total;
}

void Engine::clear() {
  for (Lane& ln : lanes_) ln.clear_events();
}

void Engine::reset() {
  clear();
  now_ = 0.0;
  window_bound_ = 0.0;
  for (Lane& ln : lanes_) {
    ln.next_local_ = 0;
    ln.now = 0.0;
    ln.cur_seq = 0;
    ln.fx_idx = 0;
    ln.executed = 0;
  }
}

}  // namespace hermes::sim
