#include "sim/network.hpp"

#include <algorithm>
#include <cmath>

namespace hermes::sim {

namespace {

std::uint64_t pair_key(net::NodeId a, net::NodeId b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
}

}  // namespace

Network::Network(Engine& engine, const net::Topology& topology,
                 NetworkParams params, Rng rng)
    : engine_(engine),
      topology_(topology),
      params_(params),
      rng_(rng),
      nodes_(topology.graph.node_count(), nullptr),
      counters_(topology.graph.node_count()),
      crashed_(topology.graph.node_count(), false),
      uplink_free_at_(topology.graph.node_count(), 0.0) {
  pair_seed_ = rng_.next_u64();
  engine_.configure_shards(net::kRegionCount, derive_lookahead());
  engine_.set_workers(params_.workers);
  const std::size_t n = topology_.graph.node_count();
  shard_of_.resize(n);
  for (net::NodeId v = 0; v < n; ++v) {
    shard_of_[v] = static_cast<std::uint32_t>(topology_.regions[v]);
  }
  const std::size_t slices = engine_.shard_count() + 1;
  shards_.reserve(slices);
  for (std::size_t i = 0; i < slices; ++i) {
    shards_.emplace_back(rng_.next_u64());
  }
}

double Network::derive_lookahead() const {
  // Cross-region latency lower bound: adjacent pairs use the pre-sampled
  // edge labels (minimized here), non-adjacent pairs draw from the inter
  // normal, bounded by mean - 8 sigma (P(below) ~ 6e-16 per draw; the
  // engine asserts the bound on every cross-shard delivery rather than
  // silently reordering).
  double la = net::kInterMeanMs - 8.0 * std::sqrt(net::kInterVariance);
  const std::size_t n = topology_.graph.node_count();
  for (net::NodeId v = 0; v < n; ++v) {
    for (const net::Edge& e : topology_.graph.neighbors(v)) {
      if (topology_.regions[v] != topology_.regions[e.to]) {
        la = std::min(la, e.latency_ms);
      }
    }
  }
  return la > 0.0 ? la : 0.001;
}

Network::ShardState& Network::state() {
  const std::uint32_t c = engine_.context_shard();
  return c == Engine::kNoShard ? shards_.back() : shards_[c];
}

void Network::require_quiescent() const {
  // Global switches may only flip while no lane is draining: lanes read
  // this state without synchronization during a window.
  HERMES_REQUIRE(!engine_.in_shard_drain());
}

void Network::attach(net::NodeId id, Node* node) {
  HERMES_REQUIRE(id < nodes_.size());
  HERMES_REQUIRE(nodes_[id] == nullptr);
  nodes_[id] = node;
}

double Network::pair_latency(net::NodeId a, net::NodeId b) const {
  if (const auto lat = topology_.graph.edge_latency(a, b)) return *lat;
  // Keyed (counter-free) sampling: the latency is a pure function of the
  // network seed and the pair, so every read on every shard draws the same
  // value — pair latencies are independent of drain interleaving by
  // construction.
  Rng pr(pair_seed_ ^ (pair_key(a, b) * 0x9e3779b97f4a7c15ULL));
  return net::sample_latency(topology_.regions[a], topology_.regions[b], pr);
}

std::optional<SimTime> Network::send(const Message& msg) {
  HERMES_REQUIRE(msg.src < nodes_.size() && msg.dst < nodes_.size());
  HERMES_REQUIRE(msg.src != msg.dst);

  const SimTime at = engine_.now();
  ShardState& st = state();
  counters_[msg.src].messages_sent += 1;
  counters_[msg.src].bytes_sent += msg.wire_bytes;
  if (send_tap_) {
    if (engine_.in_shard_drain()) {
      // Observation order must not depend on lane interleaving: replayed
      // at the window barrier in (when, seq, idx) order.
      engine_.defer([this, msg, at] { send_tap_(msg, at); });
    } else {
      send_tap_(msg, at);
    }
  }

  if (crashed_[msg.src] || crashed_[msg.dst]) {
    ++st.dropped;
    return std::nullopt;
  }
  if (!partition_of_.empty() &&
      partition_of_[msg.src] != partition_of_[msg.dst]) {
    ++st.dropped;
    return std::nullopt;
  }
  if (!link_flaps_.empty() && link_down(msg.src, msg.dst, at)) {
    ++st.dropped;
    return std::nullopt;
  }
  if (relay_filter_ && !relay_filter_(msg)) {
    ++st.dropped;
    return std::nullopt;
  }
  if (params_.drop_probability > 0.0 &&
      st.rng.bernoulli(params_.drop_probability)) {
    ++st.dropped;
    return std::nullopt;
  }

  double latency = pair_latency(msg.src, msg.dst);
  if (params_.jitter_stddev_ms > 0.0) {
    latency += std::abs(st.rng.normal(0.0, params_.jitter_stddev_ms));
  }
  latency += proc_mult_.empty() ? kProcessingDelayMs
                                : kProcessingDelayMs * proc_mult_[msg.dst];

  // Queue on the sender's uplink: the wire time of this message starts
  // when the previous one finished serializing. The slot is written only
  // by the sender's own lane (or quiescent contexts).
  const double wire_ms = static_cast<double>(msg.wire_bytes) * 8.0 /
                         (kLinkBandwidthMbps * 1000.0);
  SimTime& free_at = uplink_free_at_[msg.src];
  const SimTime start = std::max(at, free_at);
  free_at = start + wire_ms;
  latency += (free_at - at);

  const SimTime deliver_at = at + latency;
  // The delivery closure (Network* + Message, 48 B) and the deferred-tap
  // closure (Network* + Message + SimTime, 56 B) fit EventFn's 56-byte
  // inline buffer, the tap closure exactly, so the steady-state send path
  // performs no heap allocation.
  static_assert(sizeof(Network*) + sizeof(Message) + sizeof(SimTime) <=
                    EventFn::kInlineBytes,
                "send-path closures must stay inline in the event pool");
  engine_.schedule_cross(shard_of_[msg.dst], deliver_at, [this, msg]() {
    if (crashed_[msg.dst]) return;
    Node* receiver = nodes_[msg.dst];
    HERMES_REQUIRE(receiver != nullptr);
    counters_[msg.dst].messages_received += 1;
    counters_[msg.dst].bytes_received += msg.wire_bytes;
    receiver->on_message(msg);
  });
  return deliver_at;
}

BandwidthCounters Network::total() const {
  BandwidthCounters out;
  for (const BandwidthCounters& c : counters_) {
    out.messages_sent += c.messages_sent;
    out.messages_received += c.messages_received;
    out.bytes_sent += c.bytes_sent;
    out.bytes_received += c.bytes_received;
  }
  return out;
}

std::uint64_t Network::dropped_messages() const {
  std::uint64_t total = 0;
  for (const ShardState& st : shards_) total += st.dropped;
  return total;
}

void Network::set_send_tap(SendTap tap) {
  require_quiescent();
  send_tap_ = std::move(tap);
}

void Network::set_relay_filter(RelayFilter filter) {
  require_quiescent();
  relay_filter_ = std::move(filter);
}

void Network::set_partition(const std::vector<int>& partition_of) {
  require_quiescent();
  HERMES_REQUIRE(partition_of.size() == crashed_.size());
  partition_of_ = partition_of;
}

void Network::heal_partition() {
  require_quiescent();
  partition_of_.clear();
}

void Network::set_crashed(net::NodeId id, bool crashed) {
  require_quiescent();
  HERMES_REQUIRE(id < crashed_.size());
  crashed_[id] = crashed;
}

void Network::add_link_flap(net::NodeId a, net::NodeId b, SimTime start_ms,
                            SimTime end_ms) {
  require_quiescent();
  HERMES_REQUIRE(a < nodes_.size() && b < nodes_.size() && a != b);
  HERMES_REQUIRE(start_ms < end_ms);
  link_flaps_[pair_key(a, b)].emplace_back(start_ms, end_ms);
}

bool Network::link_down(net::NodeId a, net::NodeId b, SimTime at) const {
  const auto it = link_flaps_.find(pair_key(a, b));
  if (it == link_flaps_.end()) return false;
  for (const auto& [start, end] : it->second) {
    if (at >= start && at < end) return true;
  }
  return false;
}

void Network::set_processing_multiplier(net::NodeId id, double multiplier) {
  require_quiescent();
  HERMES_REQUIRE(id < nodes_.size());
  HERMES_REQUIRE(multiplier > 0.0);
  if (proc_mult_.empty()) proc_mult_.assign(nodes_.size(), 1.0);
  proc_mult_[id] = multiplier;
}

}  // namespace hermes::sim
