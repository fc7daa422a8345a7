#include "workload/arrival.hpp"

#include <cstring>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace hermes::workload {

std::vector<Arrival> generate_arrivals(const WorkloadParams& p,
                                       std::span<const net::NodeId> senders) {
  HERMES_REQUIRE(!senders.empty());
  HERMES_REQUIRE(p.rate_hz > 0.0);
  std::vector<Arrival> out;
  Rng rng = Rng(p.seed).fork(0x3a7710adULL);

  const double gap_rate = p.rate_hz / 1000.0;  // arrivals per ms
  double t = 0.0;
  while (true) {
    t += rng.exponential(gap_rate);
    if (t >= p.duration_ms) break;
    Arrival a;
    a.at_ms = t;
    a.sender = senders[rng.uniform_u64(senders.size())];
    const double tip = rng.exponential(1.0 / kTipMean);
    a.fee = kBaseFee + static_cast<std::uint64_t>(tip);
    out.push_back(a);
  }
  return out;
}

Bytes serialize_arrivals(std::span<const Arrival> arrivals) {
  Bytes out;
  out.reserve(arrivals.size() * 20 + 8);
  put_u64_be(out, arrivals.size());
  for (const Arrival& a : arrivals) {
    std::uint64_t time_bits = 0;
    static_assert(sizeof(time_bits) == sizeof(a.at_ms));
    std::memcpy(&time_bits, &a.at_ms, sizeof(time_bits));
    put_u64_be(out, time_bits);
    put_u32_be(out, a.sender);
    put_u64_be(out, a.fee);
  }
  return out;
}

}  // namespace hermes::workload
