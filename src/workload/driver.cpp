#include "workload/driver.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace hermes::workload {

ScheduleResult schedule_arrivals(protocols::ExperimentContext& ctx,
                                 std::span<const Arrival> arrivals) {
  HERMES_REQUIRE(!ctx.nodes.empty());  // populate() must have run
  ScheduleResult result;
  // Transactions are built here, while the engine is quiescent: seq
  // allocation mutates node state, and doing it in arrival order makes the
  // id assignment independent of how the run interleaves.
  for (const Arrival& a : arrivals) {
    HERMES_REQUIRE(a.sender < ctx.node_count());
    mempool::Transaction tx;
    tx.sender = a.sender;
    tx.sender_seq = ctx.node(a.sender).allocate_seq();
    tx.id = mempool::Transaction::make_id(a.sender, tx.sender_seq);
    tx.created_at = a.at_ms;
    tx.fee = a.fee;
    ctx.tracker.on_created(tx.id, tx.created_at);
    result.txs.push_back(tx);
    result.horizon_ms = std::max(result.horizon_ms, a.at_ms);
    // schedule_global_at: submissions are control events, firing with all
    // lanes quiescent in scheduling order among equal times — the same
    // entry discipline as inject_tx and the fuzzer's World::at.
    ctx.engine.schedule_global_at(a.at_ms, [&ctx, tx] {
      // Route the dissemination timers into the sender's own lane.
      sim::Engine::ShardScope scope(ctx.engine, ctx.shard_of(tx.sender));
      ctx.node(tx.sender).submit(tx);
    });
  }
  return result;
}

ScheduleResult schedule_workload(protocols::ExperimentContext& ctx,
                                 const WorkloadParams& params) {
  const std::vector<net::NodeId> honest = ctx.honest_nodes();
  const std::vector<Arrival> arrivals = generate_arrivals(params, honest);
  if (params.kind == ArrivalKind::kAdversarial) ctx.attack_enabled = true;
  return schedule_arrivals(ctx, arrivals);
}

}  // namespace hermes::workload
