#include "sim/network.hpp"

#include <algorithm>
#include <cmath>

namespace hermes::sim {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint64_t pair_key(net::NodeId a, net::NodeId b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
}

}  // namespace

Network::PairCache::PairCache(std::size_t node_count) {
  // Each node caches a handful of non-adjacent peers in typical overlay
  // workloads; all-to-all protocols grow the table on demand.
  const std::size_t capacity = next_pow2(std::max<std::size_t>(64, node_count * 8));
  slots_.resize(capacity);
  mask_ = capacity - 1;
}

std::size_t Network::PairCache::probe_start(std::uint64_t key,
                                            std::size_t mask) {
  // splitmix64 finalizer: the packed (min << 32 | max) keys are highly
  // regular, so mix before masking to keep probe sequences short.
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebULL;
  key ^= key >> 31;
  return static_cast<std::size_t>(key) & mask;
}

const double* Network::PairCache::find(std::uint64_t key) const {
  for (std::size_t i = probe_start(key, mask_);; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.key == key) return &slot.value;
    if (slot.key == 0) return nullptr;
  }
}

void Network::PairCache::insert(std::uint64_t key, double value) {
  if ((used_ + 1) * 10 > slots_.size() * 7) grow();
  for (std::size_t i = probe_start(key, mask_);; i = (i + 1) & mask_) {
    Slot& slot = slots_[i];
    if (slot.key == 0) {
      slot.key = key;
      slot.value = value;
      ++used_;
      return;
    }
    HERMES_REQUIRE(slot.key != key);  // double insert
  }
}

void Network::PairCache::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.key == 0) continue;
    for (std::size_t i = probe_start(slot.key, mask_);; i = (i + 1) & mask_) {
      if (slots_[i].key == 0) {
        slots_[i] = slot;
        break;
      }
    }
  }
}

Network::Network(Engine& engine, const net::Topology& topology,
                 NetworkParams params, Rng rng)
    : engine_(engine),
      topology_(topology),
      params_(params),
      rng_(rng),
      model_(net::LatencyModelParams{}),
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
    shards_.emplace_back(rng_.next_u64(), n);
  }
}

double Network::derive_lookahead() const {
  // Cross-region latency lower bound: adjacent pairs use the pre-sampled
  // edge labels (minimized here), non-adjacent pairs draw from the inter
  // normal, bounded by mean - 8 sigma (P(below) ~ 6e-16 per draw; the
  // engine asserts the bound on every cross-shard delivery rather than
  // silently reordering).
  const net::LatencyModelParams lp{};
  double la = lp.inter_mean - 8.0 * std::sqrt(lp.inter_variance);
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

double Network::pair_latency(net::NodeId a, net::NodeId b) {
  if (const auto lat = topology_.graph.edge_latency(a, b)) return *lat;
  const std::uint64_t key = pair_key(a, b);
  ShardState& st = state();
  if (const double* cached = st.cache.find(key)) return *cached;
  // Keyed (counter-free) sampling: the latency is a pure function of the
  // network seed and the pair, so every shard computes the same value no
  // matter which samples it first or in what order — pair latencies are
  // independent of drain interleaving by construction.
  Rng pr(pair_seed_ ^ (key * 0x9e3779b97f4a7c15ULL));
  const double lat =
      model_.sample(topology_.regions[a], topology_.regions[b], pr);
  st.cache.insert(key, lat);
  return lat;
}

std::optional<SimTime> Network::send(const Message& msg) {
  HERMES_REQUIRE(msg.src < nodes_.size() && msg.dst < nodes_.size());
  HERMES_REQUIRE(msg.src != msg.dst);

  const SimTime at = engine_.now();
  ShardState& st = state();
  counters_[msg.src].messages_sent += 1;
  counters_[msg.src].bytes_sent += msg.wire_bytes;
  st.total.messages_sent += 1;
  st.total.bytes_sent += msg.wire_bytes;
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
  latency += proc_mult_.empty()
                 ? params_.processing_delay_ms
                 : params_.processing_delay_ms * proc_mult_[msg.dst];

  if (params_.link_bandwidth_mbps > 0.0) {
    // Queue on the sender's uplink: the wire time of this message starts
    // when the previous one finished serializing. The slot is written only
    // by the sender's own lane (or quiescent contexts).
    const double wire_ms = static_cast<double>(msg.wire_bytes) * 8.0 /
                           (params_.link_bandwidth_mbps * 1000.0);
    SimTime& free_at = uplink_free_at_[msg.src];
    const SimTime start = std::max(at, free_at);
    free_at = start + wire_ms;
    latency += (free_at - at);
  }

  const SimTime deliver_at = at + latency;
  // The delivery closure (Network* + Message) and the deferred-tap closure
  // (Network* + Message + SimTime) fit EventFn's inline buffer, so the
  // steady-state send path performs no heap allocation.
  static_assert(sizeof(Network*) + sizeof(Message) + sizeof(SimTime) <=
                    EventFn::kInlineBytes,
                "send-path closures must stay inline in the event pool");
  engine_.schedule_cross(shard_of_[msg.dst], deliver_at, [this, msg]() {
    if (crashed_[msg.dst]) return;
    Node* receiver = nodes_[msg.dst];
    HERMES_REQUIRE(receiver != nullptr);
    ShardState& rst = state();  // the destination lane's slice
    counters_[msg.dst].messages_received += 1;
    counters_[msg.dst].bytes_received += msg.wire_bytes;
    rst.total.messages_received += 1;
    rst.total.bytes_received += msg.wire_bytes;
    receiver->on_message(msg);
  });
  return deliver_at;
}

BandwidthCounters Network::total() const {
  BandwidthCounters out;
  for (const ShardState& st : shards_) {
    out.messages_sent += st.total.messages_sent;
    out.messages_received += st.total.messages_received;
    out.bytes_sent += st.total.bytes_sent;
    out.bytes_received += st.total.bytes_received;
  }
  return out;
}

std::uint64_t Network::dropped_messages() const {
  std::uint64_t total = 0;
  for (const ShardState& st : shards_) total += st.dropped;
  return total;
}

void Network::reset_counters() {
  require_quiescent();
  for (auto& c : counters_) c = BandwidthCounters{};
  for (ShardState& st : shards_) {
    st.total = BandwidthCounters{};
    st.dropped = 0;
  }
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
