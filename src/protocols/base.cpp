#include "protocols/base.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace hermes::protocols {

ExperimentContext::ExperimentContext(net::Topology topo,
                                     sim::NetworkParams net_params,
                                     std::uint64_t seed)
    : topology(std::move(topo)),
      network(engine, topology, net_params, Rng(seed).fork(1)),
      tracker(engine, nodes),
      rng(Rng(seed).fork(2)),
      behaviors(topology.graph.node_count(), Behavior::kHonest) {}

std::vector<net::NodeId> ExperimentContext::honest_nodes() const {
  std::vector<net::NodeId> out;
  for (net::NodeId v = 0; v < behaviors.size(); ++v) {
    if (behaviors[v] == Behavior::kHonest) out.push_back(v);
  }
  return out;
}

net::NodeId ExperimentContext::random_honest(Rng& r) const {
  const auto honest = honest_nodes();
  HERMES_REQUIRE(!honest.empty());
  return honest[r.uniform_u64(honest.size())];
}

void ExperimentContext::assign_behaviors(double fraction, Behavior behavior) {
  std::fill(behaviors.begin(), behaviors.end(), Behavior::kHonest);
  const std::size_t count = static_cast<std::size_t>(
      fraction * static_cast<double>(behaviors.size()) + 0.5);
  for (std::size_t idx : rng.sample_indices(behaviors.size(), count)) {
    behaviors[idx] = behavior;
  }
}

ProtocolNode::ProtocolNode(ExperimentContext& ctx, net::NodeId id)
    : sim::Node(ctx.network, id), ctx_(ctx) {
  pool_.set_capacity(ctx.mempool_capacity);
}

mempool::Block ProtocolNode::propose_block(std::uint64_t height,
                                           std::size_t max_txs) const {
  std::vector<mempool::OrderedCandidate> candidates;
  candidates.reserve(pool_.size());
  for (const mempool::Mempool::Entry& entry : pool_.arrival_log()) {
    // Evicted/rejected/committed entries stay in the arrival log for
    // position stability but are not proposable.
    if (entry.state() != mempool::Mempool::Admission::kResident) continue;
    candidates.push_back(
        mempool::OrderedCandidate{entry.id(), ordering_position(entry.tx())});
  }
  return mempool::build_block(id(), height, now(), std::move(candidates),
                              max_txs);
}

bool ProtocolNode::deliver_tx(std::shared_ptr<const void> record,
                              const Transaction& tx) {
  if (!pool_.insert(std::move(record), tx, now())) return false;
  if (tx.sender != id()) maybe_front_run(tx);
  return true;
}

std::shared_ptr<const TxBody> ProtocolNode::deliver_own(const Transaction& tx) {
  auto body = make_tx_body(tx);
  deliver_tx(body, body->tx);
  return body;
}

std::shared_ptr<const TxBody> ProtocolNode::held_tx_body(
    std::uint64_t tx_id) const {
  const mempool::Mempool::Entry* entry = pool_.find(tx_id);
  if (entry == nullptr ||
      entry->state() != mempool::Mempool::Admission::kResident) {
    return nullptr;
  }
  return std::static_pointer_cast<const TxBody>(entry->record());
}

std::size_t ProtocolNode::send_to_sample(
    Rng& rng, std::size_t count, net::NodeId except, std::uint32_t type,
    std::size_t wire, const std::shared_ptr<const sim::MessageBody>& body) {
  const auto& nbrs = ctx_.topology.graph.neighbors(id());
  std::size_t sent = 0;
  for (std::size_t i :
       rng.sample_indices(nbrs.size(), std::min(count, nbrs.size()))) {
    if (nbrs[i].to == except) continue;
    send_to(nbrs[i].to, type, wire, body);
    ++sent;
  }
  return sent;
}

void ProtocolNode::maybe_front_run(const Transaction& victim) {
  if (!ctx_.attack_enabled) return;
  if (behavior() != Behavior::kFrontRunner) return;
  if (victim.adversarial) return;
  // Only the first malicious observer attacks (Section VIII-F). The check
  // runs twice: here against committed state, and again inside the deferred
  // block — within one window several observers can pass the first check,
  // and the barrier replay (deterministic (when, seq, idx) order, i.e.
  // delivery order) lets exactly the earliest one through.
  if (ctx_.adversarial_of.count(victim.id) > 0) return;
  ctx_.engine.defer([this, victim] { launch_front_run(victim); });
}

void ProtocolNode::launch_front_run(const Transaction& victim) {
  if (ctx_.adversarial_of.count(victim.id) > 0) return;
  // The attack fans out from the attacker's node, possibly in a different
  // region than the observing delivery: route its timers into the
  // attacker's own lane.
  sim::Engine::ShardScope scope(ctx_.engine, ctx_.shard_of(id()));
  Transaction attack;
  attack.sender = id();
  attack.sender_seq = allocate_seq();
  attack.id = Transaction::make_id(id(), attack.sender_seq);
  attack.created_at = now();
  attack.payload_bytes = victim.payload_bytes;
  // Minimal outbid: under fee-priority admission the attack must outrank
  // the victim at every contended mempool, and the margin is pure cost.
  attack.fee = victim.fee + 1;
  attack.adversarial = true;
  attack.victim_id = victim.id;
  ctx_.adversarial_of.emplace(victim.id, attack);
  ctx_.tracker.on_created(attack.id, now());
  fast_submit(attack);  // it is in the attacker's own mempool instantly
}

void populate(ExperimentContext& ctx, Protocol& protocol) {
  HERMES_REQUIRE(ctx.nodes.empty());
  ctx.nodes.reserve(ctx.node_count());
  for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
    ctx.nodes.push_back(protocol.make_node(ctx, v));
  }
  for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
    // Timers each node arms in on_start must live in the node's own lane.
    sim::Engine::ShardScope scope(ctx.engine, ctx.shard_of(v));
    ctx.nodes[v]->on_start();
  }
}

void enable_transit_faults(ExperimentContext& ctx) {
  // Per-source BFS parent trees over the physical graph, precomputed
  // eagerly: the relay filter runs on the sending lane's thread, so it must
  // be a pure read of shared state (the previous lazy fill-in mutated a
  // shared cache mid-window).
  const std::size_t n = ctx.node_count();
  auto parents =
      std::make_shared<const std::vector<std::vector<net::NodeId>>>([&] {
        std::vector<std::vector<net::NodeId>> all;
        all.reserve(n);
        for (net::NodeId src = 0; src < n; ++src) {
          std::vector<net::NodeId> parent(n, src);
          std::vector<bool> seen(n, false);
          std::vector<net::NodeId> queue{src};
          seen[src] = true;
          for (std::size_t head = 0; head < queue.size(); ++head) {
            const net::NodeId v = queue[head];
            for (const net::Edge& e : ctx.topology.graph.neighbors(v)) {
              if (!seen[e.to]) {
                seen[e.to] = true;
                parent[e.to] = v;
                queue.push_back(e.to);
              }
            }
          }
          all.push_back(std::move(parent));
        }
        return all;
      }());
  ctx.network.set_send_tap(nullptr);  // taps are orthogonal; keep as-is
  ctx.network.set_relay_filter([&ctx, parents](const sim::Message& msg) {
    if (ctx.topology.graph.has_edge(msg.src, msg.dst)) return true;
    // Walk dst -> src; every intermediate must be non-dropping.
    const std::vector<net::NodeId>& parent = (*parents)[msg.src];
    net::NodeId hop = parent[msg.dst];
    while (hop != msg.src) {
      if (ctx.behaviors[hop] == Behavior::kDropper) return false;
      hop = parent[hop];
    }
    return true;
  });
}

Transaction inject_tx(ExperimentContext& ctx, net::NodeId sender) {
  Transaction tx;
  tx.sender = sender;
  const std::uint64_t seq = ctx.node(sender).allocate_seq();
  tx.sender_seq = seq;
  tx.id = Transaction::make_id(sender, seq);
  tx.created_at = ctx.engine.now();
  ctx.tracker.on_created(tx.id, tx.created_at);
  {
    // Submission enters the simulation from outside any lane; scope it to
    // the sender's shard so the dissemination timers start in its lane.
    sim::Engine::ShardScope scope(ctx.engine, ctx.shard_of(sender));
    ctx.node(sender).submit(tx);
  }
  return tx;
}

double honest_coverage(const ExperimentContext& ctx, const Transaction& tx) {
  std::size_t honest_total = 0;
  std::size_t reached = 0;
  for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
    if (!ctx.is_honest(v) || v == tx.sender) continue;
    ++honest_total;
    if (ctx.tracker.delivered(tx.id, v)) ++reached;
  }
  return honest_total == 0
             ? 0.0
             : static_cast<double>(reached) / static_cast<double>(honest_total);
}

AttackOutcome front_run_outcome(ExperimentContext& ctx,
                                const Transaction& victim, Rng& judge_rng) {
  const auto it = ctx.adversarial_of.find(victim.id);
  if (it == ctx.adversarial_of.end()) return AttackOutcome::kNoAttack;
  const Transaction& attack = it->second;

  const net::NodeId proposer = ctx.random_honest(judge_rng);
  const ProtocolNode& node = ctx.node(proposer);
  const std::size_t victim_pos = node.ordering_position(victim);
  const std::size_t attack_pos = node.ordering_position(attack);
  if (attack_pos == SIZE_MAX) return AttackOutcome::kFailed;
  if (victim_pos == SIZE_MAX) return AttackOutcome::kSucceeded;
  return attack_pos < victim_pos ? AttackOutcome::kSucceeded
                                 : AttackOutcome::kFailed;
}

}  // namespace hermes::protocols
