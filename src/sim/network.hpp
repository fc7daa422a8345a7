// Simulated point-to-point network with per-pair stable latency, optional
// per-message jitter, stochastic message loss, and per-node bandwidth
// accounting. Latency between overlay neighbors follows the physical graph
// edge label; latency between non-adjacent pairs (protocols that assume a
// connected topology, e.g. Narwhal) is a pure keyed function of the network
// seed and the pair — equivalent to sampling once and caching — so a pair
// behaves like a stable path and the value is independent of which engine
// shard evaluates it first.
//
// Sharding: construction splits the engine into one lane per geographic
// region (the shard of a node is its region) with the conservative
// lookahead derived from the latency model: cross-region latency is never
// below min(min inter-region edge label, inter_mean - 8 * inter_stddev),
// and the engine asserts that bound on every cross-shard delivery. All mutable
// per-send state (rng streams, aggregate counters, pair caches) is kept
// per shard; per-node counters are written only by the node's own lane
// (sends by the source lane, receipts by the destination lane at delivery).
// Global fault switches (crash, partition, flaps, stragglers) may only be
// flipped while the engine is quiescent — control events, setup, or
// between runs — which the setters assert.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"
#include "support/rng.hpp"

namespace hermes::sim {

class Node;

struct NetworkParams {
  double drop_probability = 0.0;   // independent per message
  double jitter_stddev_ms = 0.0;   // gaussian per-message jitter, >= 0
  double processing_delay_ms = 0.05;  // receiver-side handling cost
  // Sender-side link serialization: outgoing messages queue on the node's
  // uplink at this rate. This is what makes O(n) fan-outs (Narwhal's
  // all-to-all) pay for their breadth as n grows. 0 disables the model.
  double link_bandwidth_mbps = 200.0;
  // Engine worker threads for the region-sharded driver. 1 = sequential
  // on the calling thread (bit-identical to any other count);
  // 0 = hardware concurrency.
  std::size_t workers = 1;
};

struct BandwidthCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class Network {
 public:
  Network(Engine& engine, const net::Topology& topology, NetworkParams params,
          Rng rng);

  Engine& engine() { return engine_; }
  const net::Topology& topology() const { return topology_; }
  std::size_t node_count() const { return topology_.graph.node_count(); }

  // The engine shard (= region lane) a node lives on.
  std::uint32_t shard_of(net::NodeId id) const { return shard_of_[id]; }

  // Nodes register themselves at construction (see sim::Node).
  void attach(net::NodeId id, Node* node);

  // Sends `msg` from msg.src to msg.dst. Returns the scheduled delivery
  // time, or nullopt if the message was dropped (crash, partition, relay
  // filter, or stochastic loss).
  std::optional<SimTime> send(const Message& msg);

  // Stable latency for the (a, b) pair (graph edge label or keyed sample).
  double pair_latency(net::NodeId a, net::NodeId b);

  const BandwidthCounters& counters(net::NodeId id) const {
    return counters_[id];
  }
  // Aggregate counters, summed over the per-shard slices. Meaningful at
  // quiescent points (between runs / from control events).
  BandwidthCounters total() const;
  std::uint64_t dropped_messages() const;
  void reset_counters();

  // Marks a node as crashed: all deliveries to/from it are suppressed.
  void set_crashed(net::NodeId id, bool crashed);
  bool is_crashed(net::NodeId id) const { return crashed_[id]; }

  // Observation tap: invoked for every send() after accounting (even for
  // messages that are then dropped), before delivery is scheduled. Used by
  // the fuzz runner's trace hash; nullptr disables. While a shard is
  // draining, the invocation is deferred to the window barrier
  // (Engine::defer), so the tap always observes sends in the deterministic
  // (when, seq) order and may touch global state freely.
  using SendTap = std::function<void(const Message&, SimTime now)>;
  void set_send_tap(SendTap tap);

  // Transit filter: return false to drop the message in transit (e.g. a
  // Byzantine intermediary on the underlay path). Checked after crash and
  // partition suppression; charged as a drop. Runs on the sending lane's
  // thread, so it must only read state that is frozen during a window.
  using RelayFilter = std::function<bool(const Message&)>;
  void set_relay_filter(RelayFilter filter);

  // Network partition: assigns every node a partition id; messages only
  // cross between nodes in the same partition. heal_partition() restores
  // full connectivity. Messages in flight when the partition forms are
  // delivered (they already left the wire).
  void set_partition(const std::vector<int>& partition_of);
  void heal_partition();
  bool is_partitioned() const { return !partition_of_.empty(); }

  // Link flap: the undirected link (a, b) is down during [start_ms, end_ms).
  // Messages attempted while the link is down are charged as drops (the
  // wire is dead; neither endpoint learns of the loss). Multiple windows
  // per link compose. Consumes no randomness, so an unflapped run is
  // trace-identical to one on a Network without flaps.
  void add_link_flap(net::NodeId a, net::NodeId b, SimTime start_ms,
                     SimTime end_ms);
  bool link_down(net::NodeId a, net::NodeId b, SimTime at) const;

  // Straggler model: multiplies the receiver-side processing delay for
  // `id`. 1.0 (the default) reproduces the unmodified latency bit-for-bit.
  void set_processing_multiplier(net::NodeId id, double multiplier);
  double processing_multiplier(net::NodeId id) const {
    return proc_mult_.empty() ? 1.0 : proc_mult_[id];
  }

 private:
  // Open-addressed (linear probing) map from the packed pair key
  // (min << 32 | max, never 0 because src != dst) to the sampled latency.
  // Flat storage sized from the node count keeps the per-send lookup a
  // couple of cache lines instead of an unordered_map bucket chase; the
  // Narwhal all-to-all workload touches O(n^2) pairs, so the table grows
  // (rehashes) at ~0.7 load.
  class PairCache {
   public:
    explicit PairCache(std::size_t node_count);
    // Returns the cached value, or nullptr (caller samples and insert()s).
    const double* find(std::uint64_t key) const;
    void insert(std::uint64_t key, double value);

   private:
    struct Slot {
      std::uint64_t key = 0;  // 0 = empty
      double value = 0.0;
    };
    static std::size_t probe_start(std::uint64_t key, std::size_t mask);
    void grow();

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t used_ = 0;
  };

  // Mutable per-send state, sliced per engine shard so concurrent lanes
  // never share a cache line of it. The extra trailing slice serves
  // contexts outside any shard (setup code, control events).
  struct ShardState {
    explicit ShardState(std::uint64_t seed, std::size_t node_count)
        : rng(seed), cache(node_count) {}
    Rng rng;  // drop / jitter draws, consumed in per-lane event order
    BandwidthCounters total;
    std::uint64_t dropped = 0;
    PairCache cache;
  };

  // The ShardState slice for the calling context.
  ShardState& state();
  double derive_lookahead() const;
  void require_quiescent() const;

  Engine& engine_;
  const net::Topology& topology_;
  NetworkParams params_;
  Rng rng_;
  net::LatencyModel model_;
  // Keyed-sampling seed: pair latency = f(pair_seed_, packed pair key).
  std::uint64_t pair_seed_ = 0;
  std::vector<std::uint32_t> shard_of_;
  std::vector<ShardState> shards_;
  std::vector<Node*> nodes_;
  std::vector<BandwidthCounters> counters_;
  std::vector<bool> crashed_;
  std::vector<int> partition_of_;  // empty = no partition
  SendTap send_tap_;
  RelayFilter relay_filter_;
  // Down intervals per packed undirected pair key (min << 32 | max).
  // Empty in the common case; send() skips the lookup entirely then.
  std::unordered_map<std::uint64_t, std::vector<std::pair<SimTime, SimTime>>>
      link_flaps_;
  // Per-node processing-delay multipliers; empty until the first
  // set_processing_multiplier call (identity).
  std::vector<double> proc_mult_;
  // Per-node uplink availability time (serialization model); written only
  // by the owning node's lane.
  std::vector<SimTime> uplink_free_at_;
};

// Base class for simulated nodes. Subclasses implement on_message and may
// schedule timers through net().engine().
class Node {
 public:
  Node(Network& network, net::NodeId id) : network_(network), id_(id) {
    network.attach(id, this);
  }
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  net::NodeId id() const { return id_; }
  Network& net() { return network_; }
  const Network& net() const { return network_; }
  SimTime now() const { return network_.engine().now(); }

  virtual void on_message(const Message& msg) = 0;

 protected:
  void send_to(net::NodeId dst, std::uint32_t type, std::size_t wire_bytes,
               std::shared_ptr<const MessageBody> body) {
    Message m;
    m.src = id_;
    m.dst = dst;
    m.type = type;
    m.wire_bytes = wire_bytes + kEnvelopeBytes;
    m.body = std::move(body);
    network_.send(m);
  }

 private:
  Network& network_;
  net::NodeId id_;
};

}  // namespace hermes::sim
