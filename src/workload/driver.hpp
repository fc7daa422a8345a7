// Pipelined workload driver: turns an arrival schedule into scheduled
// submissions on an ExperimentContext's engine. Every protocol (HERMES,
// LØ, Narwhal, Mercury, gossip) runs the identical schedule — the driver
// only goes through the ProtocolNode interface, so load comparisons across
// protocols are apples-to-apples.
#pragma once

#include <span>
#include <vector>

#include "protocols/base.hpp"
#include "workload/arrival.hpp"

namespace hermes::workload {

struct ScheduleResult {
  // The scheduled honest transactions, in arrival order. ids/seqs are
  // allocated eagerly (before the engine runs), so the vector is already
  // complete when this returns; the submissions themselves fire as the
  // engine advances past each arrival time.
  std::vector<mempool::Transaction> txs;
  // Latest submission event time; run the engine past this plus a drain.
  double horizon_ms = 0.0;
};

// Builds transactions for every arrival and schedules their submission.
// Call after populate() (nodes must exist; mempool capacity and behaviors
// are fixed at populate time). The caller then drives
// ctx.engine.run_until(result.horizon_ms + drain).
ScheduleResult schedule_workload(protocols::ExperimentContext& ctx,
                                 const WorkloadParams& params);

// As above, but over an explicit arrival schedule (the fuzzer pre-draws
// arrivals so the scenario stays a pure function of its seed).
ScheduleResult schedule_arrivals(protocols::ExperimentContext& ctx,
                                 std::span<const Arrival> arrivals);

}  // namespace hermes::workload
