// Randomized adversarial scenario model for the swarm-style fuzzer.
//
// A Scenario is the complete, explicit description of one experiment:
// topology shape, protocol and its knobs, Byzantine role assignment,
// message-level faults, the injection schedule, churn events and partition
// windows. generate_scenario() samples all of it deterministically from a
// single 64-bit seed; the runner executes the *struct*, not the seed, so a
// shrunk scenario replays exactly like a generated one. Serialization is a
// line-oriented text format (corpus entries, --replay-file).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "protocols/base.hpp"

namespace hermes::fuzz {

enum class ProtocolKind : std::uint8_t { kHermes, kGossip };

// One Byzantine node and the behaviour it plays.
struct ByzAssignment {
  net::NodeId node = 0;
  protocols::Behavior behavior = protocols::Behavior::kDropper;
  bool operator==(const ByzAssignment&) const = default;
};

// One client injection: a single transaction, or an erasure-coded batch
// when batch_size > 0 (HERMES only).
struct Injection {
  double at_ms = 0.0;
  net::NodeId sender = 0;
  std::uint32_t batch_size = 0;
  bool operator==(const Injection&) const = default;
};

// Crash or recover a set of nodes, optionally followed by a view change
// (HERMES rebuilds and re-certifies its overlays from epoch_seed). A
// recovery with `rejoin` set additionally puts the nodes through the join
// admission protocol (signed request, f+1 witnesses, state catch-up)
// instead of silently resuming.
struct ChurnEvent {
  double at_ms = 0.0;
  bool recover = false;
  std::vector<net::NodeId> nodes;
  bool advance_epoch = false;
  std::uint64_t epoch_seed = 0;
  bool rejoin = false;
  bool operator==(const ChurnEvent&) const = default;
};

// Two-sided network split active during [start_ms, end_ms); sides are
// assigned per node from assign_seed.
struct PartitionWindow {
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::uint64_t assign_seed = 0;
  bool operator==(const PartitionWindow&) const = default;
};

// One physical link silently dropping every message during
// [start_ms, end_ms) — the grey-failure sibling of a partition.
struct LinkFlap {
  net::NodeId a = 0;
  net::NodeId b = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool operator==(const LinkFlap&) const = default;
};

// A node whose local processing delay is scaled by `multiplier` for the
// whole run (slow disk, overloaded host): late, not silent.
struct Straggler {
  net::NodeId node = 0;
  double multiplier = 1.0;
  bool operator==(const Straggler&) const = default;
};

// Bounds parse_scenario holds every count in a scenario file to, so a
// replayed file builds the world it describes instead of aborting or
// stalling the runner. Each sits far above the generator's ranges (12..48
// nodes, f <= 2, k <= 4, degree <= 6, batches of 3..6, under 150 load
// transactions) and above the paper's N = 10,000, the scale `fuzz
// --paper-scale` is for.
inline constexpr std::size_t kMaxScenarioNodes = 100000;
// HERMES codes a batch into 3 data shards and f parity shards, and the
// erasure code takes at most 255.
inline constexpr std::size_t kMaxScenarioF = 64;
inline constexpr std::size_t kMaxScenarioOverlays = 64;
// min_degree and connectivity: the topology lays about N times this many
// links.
inline constexpr std::size_t kMaxScenarioDegree = 64;
inline constexpr std::uint32_t kMaxScenarioBatch = 1024;
// Expected sustained-load transactions, load_rate_hz x load_duration_ms.
inline constexpr double kMaxScenarioLoadTxs = 100000.0;
// Every time in milliseconds: each event's at, each window's start and
// end, drain_ms, fallback_delay_ms, jitter_stddev_ms and the load window.
// A self-healing run ticks until its horizon, so its cost grows with the
// times: seed 29 replays in 0.04 s with its own 10,862 ms drain and in
// 0.7 s with a drain at this bound (Release, 4-vCPU x86 host). The
// generator and the directed scenarios of tools/fuzz.cpp write at most
// 16,000 ms, a drain.
inline constexpr double kMaxScenarioTimeMs = 1000000.0;

struct Scenario {
  std::uint64_t seed = 0;

  // Topology.
  std::size_t nodes = 30;
  std::size_t f = 1;
  std::size_t k = 3;
  std::size_t min_degree = 5;
  std::size_t connectivity = 2;
  double locality_bias = 0.5;

  ProtocolKind protocol = ProtocolKind::kHermes;

  // Byzantine assignment and message-level faults.
  std::vector<ByzAssignment> byzantine;
  bool blind_blast = false;      // front-runners also blast uncertified copies
  bool transit_faults = false;   // Byzantine underlay intermediaries drop
  double drop_probability = 0.0;
  double jitter_stddev_ms = 0.0;

  // HERMES knobs (ignored for gossip).
  std::vector<net::NodeId> committee;  // 3f+1 members, <= f Byzantine
  double fallback_delay_ms = 400.0;
  bool enable_fallback = true;
  bool enable_acks = false;
  bool direct_injection = true;  // false: relay over f+1 disjoint paths
  // Self-healing loop (HermesConfig::enable_self_healing): health ticks,
  // gap pulls, local repair, health-triggered view changes, and join
  // admission (signed requests + f+1 witnesses) for rejoin events.
  bool self_healing = false;
  // Background epoch pipeline (requires self_healing): incremental
  // absorption + warm-started re-anneal of epoch e+1 while e serves
  // traffic. Exercised by join/leave storm churn events.
  bool epoch_pipeline = false;

  // Schedule.
  std::vector<Injection> injections;
  std::vector<ChurnEvent> churn;
  std::vector<PartitionWindow> partitions;
  std::vector<LinkFlap> link_flaps;
  std::vector<Straggler> stragglers;
  double drain_ms = 6000.0;

  // Sustained multi-tx load (extended mode): a seeded Poisson workload
  // streamed on top of the discrete injections, optionally under
  // fee-priority mempool pressure. The runner re-derives the arrival
  // schedule from (load_seed, load_rate_hz, load_duration_ms) via
  // workload::generate_arrivals, so the scenario stays a pure function of
  // its fields. load_rate_hz == 0 disables the feature entirely.
  double load_rate_hz = 0.0;       // mean arrivals per simulated second
  double load_duration_ms = 0.0;   // workload window length
  double load_start_ms = 0.0;      // offset of the window start
  std::uint64_t load_seed = 0;     // arrival-process seed
  std::size_t mempool_capacity = 0;  // per-node bound; 0 = unbounded

  bool hermes() const { return protocol == ProtocolKind::kHermes; }
  bool has_load() const { return load_rate_hz > 0.0; }
  bool has_front_runner() const;
  // Some churn event puts its nodes through join admission.
  bool has_rejoin() const;
  // No Byzantine nodes, no message faults, no churn, no partitions: the
  // regime where exact invariants (full coverage, zero fallback pulls)
  // must hold.
  bool benign() const;
  // Largest node set simultaneously crashed at any point of the schedule.
  std::size_t max_concurrent_crashes() const;
  // Field-wise; parse_scenario(serialize(s)) == s for every scenario the
  // parser accepts.
  bool operator==(const Scenario&) const = default;
};

// Deterministic scenario synthesis: the full experiment is a pure function
// of `seed`. With `extended` set (the default) the generator also samples
// the post-v1 fault modes — link flaps, stragglers, self-healing — whose
// draws are appended strictly after every legacy draw, so
// extended == false reproduces the historical corpus byte-for-byte (this
// is what `fuzz --hash-batch` uses as its trace-equivalence baseline).
Scenario generate_scenario(std::uint64_t seed, bool extended = true);

// One-line human summary (batch logs, corpus annotations).
std::string describe(const Scenario& s);

// Text round-trip. parse_scenario returns nullopt on malformed input, on a
// value that does not fit its field or exceeds its bound above, and on a
// scenario the runner cannot build or would run differently than written.
std::string serialize(const Scenario& s);
std::optional<Scenario> parse_scenario(const std::string& text);

}  // namespace hermes::fuzz
