// Common protocol-evaluation framework: every baseline (gossip, LØ,
// Narwhal, Mercury) and HERMES itself plugs into this harness, mirroring
// the paper's methodology of implementing all protocols on one common
// simulation framework (Section VIII-A).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mempool/block.hpp"
#include "mempool/mempool.hpp"
#include "net/topology.hpp"
#include "protocols/delivery.hpp"
#include "sim/network.hpp"
#include "support/rng.hpp"

namespace hermes::protocols {

using mempool::Transaction;

// Byzantine behaviours exercised by Figures 5a and 5b.
enum class Behavior : std::uint8_t {
  kHonest,
  // Receives but never relays/serves (censorship / robustness experiments).
  kDropper,
  // Observes the mempool and races victim transactions (front-running
  // experiments). Front-runners also relay normally so they stay covert.
  kFrontRunner,
};

class ProtocolNode;

// A transaction body: what every baseline sends, and the record a
// transaction originating at a node is kept in there.
struct TxBody final : sim::Body<TxBody> {
  Transaction tx;
};

// The one body every copy of a broadcast of `tx` shares.
inline std::shared_ptr<const TxBody> make_tx_body(const Transaction& tx) {
  auto body = std::make_shared<TxBody>();
  body->tx = tx;
  return body;
}

// Shared state of one experiment run: the simulated world plus the
// measurement instruments.
struct ExperimentContext {
  ExperimentContext(net::Topology topology, sim::NetworkParams net_params,
                    std::uint64_t seed);

  sim::Engine engine;
  net::Topology topology;
  sim::Network network;
  std::vector<std::unique_ptr<ProtocolNode>> nodes;
  DeliveryTracker tracker;
  Rng rng;

  std::vector<Behavior> behaviors;

  // Front-running bookkeeping: victim tx id -> adversarial transaction,
  // filled by the first malicious observer (paper Section VIII-F).
  std::unordered_map<std::uint64_t, Transaction> adversarial_of;
  bool attack_enabled = false;

  // Per-node mempool capacity applied at node construction (populate());
  // 0 = unbounded (the historical behaviour). Under a bound, admission is
  // fee-priority with min-(fee, id) eviction — every protocol runs the
  // identical admission rule, so sustained-load comparisons stay fair.
  std::size_t mempool_capacity = 0;

  std::size_t node_count() const { return topology.graph.node_count(); }
  // Engine shard (region lane) of a node. Entry points that call into a
  // node from outside the simulation (populate, inject_tx) open a
  // ShardScope on this so node timers land in the node's own lane.
  std::uint32_t shard_of(net::NodeId v) const { return network.shard_of(v); }
  bool is_honest(net::NodeId v) const {
    return behaviors[v] == Behavior::kHonest;
  }
  std::vector<net::NodeId> honest_nodes() const;
  net::NodeId random_honest(Rng& r) const;

  // Assigns `fraction` of nodes (uniformly at random) the given behaviour;
  // the rest stay honest. Clears previous assignments.
  void assign_behaviors(double fraction, Behavior behavior);

  ProtocolNode& node(net::NodeId v) { return *nodes[v]; }
};

// Base class every protocol's node implements.
class ProtocolNode : public sim::Node {
 public:
  ProtocolNode(ExperimentContext& ctx, net::NodeId id);

  Behavior behavior() const { return ctx_.behaviors[id()]; }
  bool honest() const { return behavior() == Behavior::kHonest; }
  // Droppers receive but do not relay; this is the check relay paths use.
  bool relays() const { return behavior() != Behavior::kDropper; }

  mempool::Mempool& pool() { return pool_; }
  const mempool::Mempool& pool() const { return pool_; }

  // Position this node (as a block proposer) would give `tx` in its block.
  // Default: mempool arrival order. LØ overrides with commitment order —
  // its witnesses hold miners to the commitment log.
  virtual std::size_t ordering_position(const Transaction& tx) const {
    return pool_.arrival_position(tx.id);
  }

  // Builds the block this node would propose right now: its mempool
  // contents ordered by ordering_position (protocol-specific), truncated
  // to max_txs. The Section VIII-F front-running verdict is equivalent to
  // inspecting this block.
  mempool::Block propose_block(std::uint64_t height, std::size_t max_txs) const;

  // Whether this node relays `tx`. Droppers relay nothing; front-runners
  // additionally censor the victim transactions under attack, trying to
  // slow them down while their own transaction races ahead.
  bool relays_tx(const Transaction& tx) const {
    if (!relays()) return false;
    if (behavior() == Behavior::kFrontRunner && !tx.adversarial &&
        ctx_.adversarial_of.count(tx.id) > 0) {
      return false;
    }
    return true;
  }

  // True when this node launched the front-running attack against `tx`
  // (used by protocols where only the attacker itself deviates, e.g.
  // Narwhal ack withholding — wholesale collusion would saturate the
  // 2n/3 quorum margin and overstate the attack).
  bool is_my_victim(const Transaction& tx) const {
    const auto it = ctx_.adversarial_of.find(tx.id);
    return it != ctx_.adversarial_of.end() && it->second.sender == id();
  }

  // Client-facing injection point: delivers `tx` originating here to this
  // node's own mempool, then disseminates it.
  virtual void submit(const Transaction& tx) = 0;
  // The fastest dissemination an adversary at this node can mount for its
  // front-running transaction, which it too delivers here first. Defaults
  // to the normal protocol path; protocols whose rules permit direct
  // blasting override this.
  virtual void fast_submit(const Transaction& tx) { submit(tx); }
  // Called once after all nodes exist (timers, initial state).
  virtual void on_start() {}

  // Next sender-local sequence number (1-based, strictly increasing).
  // HERMES's committee enforces this ordering; other protocols just use it
  // for unique transaction ids.
  std::uint64_t allocate_seq() { return ++last_seq_; }

 protected:
  // Inserts `tx`, which lives inside `record` (the body it arrived in), into
  // the mempool (the record of first delivery) and fires the front-running
  // hook. Returns true when the transaction was new.
  bool deliver_tx(std::shared_ptr<const void> record, const Transaction& tx);
  // Delivers `tx`, originating here, in a body of its own and returns that
  // body: the one the origin broadcasts and keeps.
  std::shared_ptr<const TxBody> deliver_own(const Transaction& tx);
  // The body this node keeps for resident `tx_id`, which a pull or fetch
  // answer sends; nullptr when it is not resident. Every record of a
  // baseline's pool is a TxBody: the one it received or its own.
  std::shared_ptr<const TxBody> held_tx_body(std::uint64_t tx_id) const;

  // The one sampled fan-out: sends one shared `body` to min(count, degree)
  // physical neighbors drawn with rng.sample_indices, skipping `except` (a
  // node passes its own id to skip none). Callers pass a body built once
  // per broadcast, or the body a relay received. Returns the number of
  // messages sent.
  std::size_t send_to_sample(Rng& rng, std::size_t count, net::NodeId except,
                             std::uint32_t type, std::size_t wire,
                             const std::shared_ptr<const sim::MessageBody>& body);

  ExperimentContext& ctx_;
  mempool::Mempool pool_;

 private:
  void maybe_front_run(const Transaction& victim);
  // The deferred body of maybe_front_run: runs at a quiescent point (the
  // window barrier from a draining lane, inline otherwise) because the attack
  // mutates cross-shard state (adversarial_of, the attacker's own mempool
  // and uplink, possibly in another region).
  void launch_front_run(const Transaction& victim);

  std::uint64_t last_seq_ = 0;
};

// Factory interface used by the experiment harness and benches.
class Protocol {
 public:
  virtual ~Protocol() = default;
  virtual std::string_view name() const = 0;
  virtual std::unique_ptr<ProtocolNode> make_node(ExperimentContext& ctx,
                                                  net::NodeId id) = 0;
};

// Instantiates all nodes for `protocol` and runs their on_start hooks.
void populate(ExperimentContext& ctx, Protocol& protocol);

// Transit fault model for the robustness experiments (Figure 5b): messages
// between non-adjacent nodes ride the physical shortest path, and any
// Byzantine intermediate silently drops them. Direct links (physical
// neighbors) are unaffected. This is what separates protocols that lean on
// long logical links (Narwhal's all-to-all, Mercury's gateways) from those
// that stay on neighbor links or keep f+1 redundant routes (HERMES). Call
// after assign_behaviors.
void enable_transit_faults(ExperimentContext& ctx);

// Submits a transaction from `sender` at the current simulation time,
// registering it with the tracker. The sequence number is allocated from
// the sender's own counter. Returns the transaction.
Transaction inject_tx(ExperimentContext& ctx, net::NodeId sender);

// --- Outcome analysis -------------------------------------------------------

// Fraction of honest nodes (excluding the origin) that received `tx`.
double honest_coverage(const ExperimentContext& ctx, const Transaction& tx);

// Front-running verdict (Section VIII-F): the attack on `victim` succeeded
// if the adversarial transaction sits before the victim in the arrival log
// of a uniformly chosen honest proposer (who orders blocks by arrival;
// accountability prevents malicious proposers from reordering undetected).
enum class AttackOutcome { kNoAttack, kSucceeded, kFailed };
AttackOutcome front_run_outcome(ExperimentContext& ctx,
                                const Transaction& victim, Rng& judge_rng);

}  // namespace hermes::protocols
