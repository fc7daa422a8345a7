#include "hermes/audit.hpp"

#include <gtest/gtest.h>

namespace hermes::hermes_proto {
namespace {

TEST(AuditLog, RecordsViolations) {
  AuditLog log;
  log.record(1.0, ViolationKind::kBadCertificate, 7, 100);
  log.record(2.0, ViolationKind::kWrongOverlay, 8, 101);
  ASSERT_EQ(log.violations().size(), 2u);
  EXPECT_EQ(log.violations()[0].offender, 7u);
  EXPECT_EQ(log.violations()[1].kind, ViolationKind::kWrongOverlay);
  EXPECT_EQ(log.count_of(ViolationKind::kBadCertificate), 1u);
  EXPECT_EQ(log.count_of(ViolationKind::kIllegitimatePredecessor), 0u);
}

TEST(AuditLog, FirstStrikeExcludesByDefault) {
  AuditLog log;
  EXPECT_FALSE(log.is_excluded(7));
  log.record(1.0, ViolationKind::kIllegitimatePredecessor, 7, 1);
  EXPECT_TRUE(log.is_excluded(7));
  EXPECT_EQ(log.excluded_count(), 1u);
}

TEST(AuditLog, ViolationNamesDistinct) {
  std::set<std::string> names;
  for (auto kind :
       {ViolationKind::kBadCertificate, ViolationKind::kWrongOverlay,
        ViolationKind::kIllegitimatePredecessor}) {
    names.insert(violation_name(kind));
  }
  EXPECT_EQ(names.size(), 3u);
}

}  // namespace
}  // namespace hermes::hermes_proto
