// Workload generator determinism and distribution shape.
//
// Determinism is byte-level: the same (params, senders) input must yield
// the identical serialized schedule, every time, on every platform — the
// cross-worker replay tests and the fuzzer's load replay depend on it.
// The distribution checks are seeded and exact-tolerance: the sample is a
// pure function of the seed, so the asserted bounds are deterministic
// facts about this generator, not flaky statistical hopes.
#include "workload/arrival.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mempool/transaction.hpp"

namespace hermes::workload {
namespace {

std::vector<net::NodeId> senders(std::size_t n) {
  std::vector<net::NodeId> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<net::NodeId>(i);
  return out;
}

TEST(Arrival, SameSeedYieldsByteIdenticalSchedule) {
  WorkloadParams p;
  p.kind = ArrivalKind::kPoisson;
  p.duration_ms = 5000.0;
  p.rate_hz = 80.0;
  p.seed = 42;
  const auto s = senders(32);
  const Bytes a = serialize_arrivals(generate_arrivals(p, s));
  const Bytes b = serialize_arrivals(generate_arrivals(p, s));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(Arrival, DifferentSeedsYieldDifferentSchedules) {
  WorkloadParams p;
  p.duration_ms = 5000.0;
  p.rate_hz = 80.0;
  p.seed = 42;
  const auto s = senders(32);
  const Bytes a = serialize_arrivals(generate_arrivals(p, s));
  p.seed = 43;
  const Bytes b = serialize_arrivals(generate_arrivals(p, s));
  EXPECT_NE(a, b);
}

TEST(Arrival, AdversarialKindSharesThePoissonSchedule) {
  // kAdversarial arms the reaction machinery in the driver; the honest
  // arrival schedule itself is the Poisson one, byte for byte.
  WorkloadParams p;
  p.kind = ArrivalKind::kPoisson;
  p.duration_ms = 3000.0;
  p.rate_hz = 60.0;
  p.seed = 7;
  const auto s = senders(16);
  const Bytes poisson = serialize_arrivals(generate_arrivals(p, s));
  p.kind = ArrivalKind::kAdversarial;
  EXPECT_EQ(serialize_arrivals(generate_arrivals(p, s)), poisson);
}

TEST(Arrival, SchedulesAreSortedWithinDurationWithLawfulFields) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kAdversarial}) {
    WorkloadParams p;
    p.kind = kind;
    p.duration_ms = 10000.0;
    p.rate_hz = 50.0;
    p.seed = 11;
    const auto s = senders(20);
    const auto arrivals = generate_arrivals(p, s);
    ASSERT_FALSE(arrivals.empty());
    double prev = 0.0;
    for (const Arrival& a : arrivals) {
      EXPECT_GE(a.at_ms, prev);
      prev = a.at_ms;
      EXPECT_LE(a.at_ms, p.duration_ms);
      EXPECT_LT(a.sender, 20u);
      EXPECT_GE(a.fee, kBaseFee);
    }
  }
  // Sizes are not drawn: the driver's transactions keep the paper's 250 B.
  EXPECT_EQ(mempool::Transaction{}.payload_bytes, mempool::kDefaultTxBytes);
}

TEST(Arrival, PoissonMeanInterArrivalMatchesRate) {
  WorkloadParams p;
  p.kind = ArrivalKind::kPoisson;
  p.duration_ms = 200000.0;  // ~10k arrivals: the sample mean is tight
  p.rate_hz = 50.0;
  p.seed = 3;
  const auto arrivals = generate_arrivals(p, senders(10));
  ASSERT_GT(arrivals.size(), 5000u);
  double sum = 0.0;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    sum += arrivals[i].at_ms - arrivals[i - 1].at_ms;
  }
  const double mean_gap = sum / static_cast<double>(arrivals.size() - 1);
  // Expected 1000/50 = 20 ms. Seeded sample, so 5% is a deterministic
  // bound on *this* draw, with margin (the realized error is well under).
  EXPECT_NEAR(mean_gap, 20.0, 1.0);
}

TEST(Arrival, FeeTipsAreExponentialAroundTheMean) {
  WorkloadParams p;
  p.duration_ms = 100000.0;
  p.rate_hz = 50.0;
  p.seed = 17;
  static_assert(kBaseFee == 10 && kTipMean == 20.0);
  const auto arrivals = generate_arrivals(p, senders(10));
  ASSERT_GT(arrivals.size(), 2000u);
  double sum = 0.0;
  std::uint64_t max_fee = 0;
  for (const Arrival& a : arrivals) {
    ASSERT_GE(a.fee, 10u);
    sum += static_cast<double>(a.fee - 10);
    max_fee = std::max(max_fee, a.fee);
  }
  const double mean_tip = sum / static_cast<double>(arrivals.size());
  // Floored exponential(mean 20): expected sample mean ~19.5.
  EXPECT_NEAR(mean_tip, 19.5, 1.5);
  // Heavy tail present: some bids land far above the mean.
  EXPECT_GT(max_fee, 100u);
}

TEST(Arrival, SerializationIsInjectiveOnFieldChanges) {
  Arrival a;
  a.at_ms = 12.5;
  a.sender = 3;
  a.fee = 40;
  const std::vector<Arrival> base{a};
  const Bytes ref = serialize_arrivals(base);
  for (int field = 0; field < 3; ++field) {
    Arrival m = a;
    if (field == 0) m.at_ms = 12.6;
    if (field == 1) m.sender = 4;
    if (field == 2) m.fee = 41;
    EXPECT_NE(serialize_arrivals(std::vector<Arrival>{m}), ref)
        << "field " << field;
  }
}

}  // namespace
}  // namespace hermes::workload
