#include "hermes/audit.hpp"

namespace hermes::hermes_proto {

const char* violation_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kBadCertificate: return "bad-certificate";
    case ViolationKind::kWrongOverlay: return "wrong-overlay";
    case ViolationKind::kIllegitimatePredecessor: return "illegitimate-predecessor";
  }
  return "unknown";
}

void AuditLog::record(sim::SimTime at, ViolationKind kind, net::NodeId offender,
                      std::uint64_t tx_id) {
  violations_.push_back(Violation{at, kind, offender, tx_id});
  excluded_.insert(offender);
}

std::size_t AuditLog::count_of(ViolationKind kind) const {
  std::size_t count = 0;
  for (const auto& v : violations_) {
    if (v.kind == kind) ++count;
  }
  return count;
}

}  // namespace hermes::hermes_proto
