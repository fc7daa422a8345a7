// Small reusable thread pool for CPU-bound fan-out. Its one user is the
// region-sharded sim::Engine, which runs two batches per window: one task
// per lane to drain it, then one per destination lane to merge the
// cross-lane events sent to it. One batch runs at a time: parallel_for()
// hands indices to the workers and to the calling thread, then blocks
// until every index has been processed. Workers persist across batches so
// the short batches of every window stay cheap.
//
// Tasks must not throw; determinism is the caller's job (the pool makes no
// ordering promises beyond "every index runs exactly once").
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace hermes {

class ThreadPool {
 public:
  // Spawns `threads` worker threads. 0 is valid: parallel_for then runs
  // everything on the calling thread (useful for serial baselines).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Worker threads owned by the pool (the calling thread adds one more
  // evaluation lane on top during parallel_for).
  std::size_t size() const { return threads_.size(); }

  // Runs fn(i) for every i in [0, n), distributing indices across the
  // workers and the calling thread. Blocks until all n calls returned.
  // Not reentrant: one batch at a time per pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  // Grabs and runs indices of the active batch until it is drained.
  // Returns the number of indices this thread completed. The caller's lock
  // is released around fn() and reacquired before returning.
  void drain_batch(std::unique_lock<std::mutex>& lock) HERMES_REQUIRES(mu_);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a batch is available
  std::condition_variable done_cv_;  // caller: batch fully completed
  const std::function<void(std::size_t)>* fn_ HERMES_GUARDED_BY(mu_) = nullptr;
  std::size_t next_ HERMES_GUARDED_BY(mu_) = 0;   // next index to hand out
  std::size_t total_ HERMES_GUARDED_BY(mu_) = 0;  // indices in active batch
  std::size_t completed_ HERMES_GUARDED_BY(mu_) = 0;  // indices finished
  bool stop_ HERMES_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace hermes
