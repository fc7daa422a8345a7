// Seeded arrival-process generation for heavy-traffic workloads.
//
// A workload is a pure function of (WorkloadParams, sender set): the same
// seed yields the byte-identical arrival schedule on every platform and
// worker count, which is what lets the cross-worker determinism tests and
// the fuzzer replay sustained load exactly. All draws come from a private
// Rng stream forked from the seed; nothing here touches the wall clock.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/graph.hpp"
#include "support/bytes.hpp"

namespace hermes::workload {

// Arrival process shapes exercised by the load experiments.
enum class ArrivalKind : std::uint8_t {
  // Homogeneous Poisson process at rate_hz, senders uniform.
  kPoisson,
  // Poisson honest arrivals with the front-running reaction machinery
  // armed: adversarial transactions are NOT pre-scheduled here — they are
  // emitted by Behavior::kFrontRunner observers keyed off the victim sends
  // they actually deliver (protocols/base.hpp, maybe_front_run). The
  // generator itself produces the same schedule as kPoisson.
  kAdversarial,
};

// Priority-fee model: every transaction bids kBaseFee plus an
// exponentially distributed tip (mean kTipMean, floored to an integer).
inline constexpr std::uint64_t kBaseFee = 10;
inline constexpr double kTipMean = 20.0;

struct WorkloadParams {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double duration_ms = 2000.0;
  double rate_hz = 50.0;  // mean arrivals per simulated second
  std::uint64_t seed = 1;
};

// One client arrival: a transaction enters the system at `at_ms` from
// `sender`, bidding `fee`.
struct Arrival {
  double at_ms = 0.0;
  net::NodeId sender = 0;
  std::uint64_t fee = 0;
};

// Generates the full arrival schedule, sorted by at_ms (ties keep draw
// order). `senders` is the candidate origin set (typically the honest
// nodes); it must be non-empty. Pure: same inputs, same output bytes.
std::vector<Arrival> generate_arrivals(const WorkloadParams& params,
                                       std::span<const net::NodeId> senders);

// Canonical byte encoding of a schedule (time bits, sender and fee per
// arrival). Two schedules are identical iff their serializations
// compare equal — the determinism tests diff these.
Bytes serialize_arrivals(std::span<const Arrival> arrivals);

}  // namespace hermes::workload
