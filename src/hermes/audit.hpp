// Accountability bookkeeping (Section VI-C): every protocol violation a
// node observes is recorded with tamper-evident context, and offenders are
// excluded from further participation.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "net/graph.hpp"
#include "sim/engine.hpp"

namespace hermes::hermes_proto {

enum class ViolationKind : std::uint8_t {
  kBadCertificate,          // threshold signature does not verify
  kWrongOverlay,            // claimed overlay != seed mod k
  kIllegitimatePredecessor, // sender is not a predecessor in the overlay
};

const char* violation_name(ViolationKind kind);

struct Violation {
  sim::SimTime at = 0.0;
  ViolationKind kind{};
  net::NodeId offender = 0;
  std::uint64_t tx_id = 0;
};

class AuditLog {
 public:
  // Records the violation and excludes the offender: one strike suffices.
  void record(sim::SimTime at, ViolationKind kind, net::NodeId offender,
              std::uint64_t tx_id);

  bool is_excluded(net::NodeId node) const { return excluded_.count(node) > 0; }
  const std::vector<Violation>& violations() const { return violations_; }
  std::size_t count_of(ViolationKind kind) const;
  std::size_t excluded_count() const { return excluded_.size(); }

 private:
  std::vector<Violation> violations_;
  std::unordered_set<net::NodeId> excluded_;
};

}  // namespace hermes::hermes_proto
