// Cross-worker determinism of the sustained-load pipeline: a multi-tx
// workload (mempool pressure + front-running attacks armed) replayed at
// engine worker counts {1, 2, 4} must produce the byte-identical send
// trace AND the identical attacker-economics report. This extends the
// fuzz corpus contract (tests/fuzz/test_workers_determinism.cpp) to the
// workload engine: parallelism may only change wall-clock time. It covers
// the four protocols bench_workload runs, so the tsan preset checks every
// message body their lanes share.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "crypto/sha256.hpp"
#include "hermes/hermes_node.hpp"
#include "protocols/l0.hpp"
#include "protocols/mercury.hpp"
#include "protocols/narwhal.hpp"
#include "support/bytes.hpp"
#include "workload/driver.hpp"
#include "workload/economics.hpp"

namespace hermes::workload {
namespace {

struct LoadRun {
  std::string trace_hash;
  std::size_t sends = 0;
  std::string economics;  // canonical rendering of the full report
};

std::string render(const EconomicsReport& report) {
  std::ostringstream out;
  out << report.attacked << '/' << report.insertions << '/'
      << report.sandwiches << '/' << report.total_profit << '\n';
  for (const AttackRecord& r : report.attacks) {
    out << r.victim_id << ' ' << r.attack_id << ' ' << r.victim_fee << ' '
        << r.attack_fee << ' ' << r.attacker << ' ' << r.victim_sender << ' '
        << r.hop_distance << ' ' << r.insertion_success << ' '
        << r.sandwich_success << ' ' << r.profit << '\n';
  }
  for (const PositionBucket& b : report.by_distance) {
    out << b.attacks << ':' << b.successes << ':' << b.profit << '\n';
  }
  return out.str();
}

LoadRun run_load(protocols::Protocol& protocol, std::size_t workers,
                 std::uint64_t seed) {
  net::TopologyParams tp;
  tp.node_count = 48;
  tp.min_degree = 5;
  Rng trng(seed);
  sim::NetworkParams np;
  np.workers = workers;
  protocols::ExperimentContext ctx(net::make_topology(tp, trng), np,
                                   seed ^ 0x5eedULL);
  ctx.assign_behaviors(0.15, protocols::Behavior::kFrontRunner);
  ctx.mempool_capacity = 24;  // pressure: evictions happen mid-run
  protocols::populate(ctx, protocol);

  crypto::Sha256 hasher;
  std::size_t sends = 0;
  ctx.network.set_send_tap(
      [&hasher, &sends](const sim::Message& msg, sim::SimTime now) {
        Bytes record;
        record.reserve(32);
        std::uint64_t time_bits = 0;
        static_assert(sizeof(time_bits) == sizeof(now));
        std::memcpy(&time_bits, &now, sizeof(time_bits));
        put_u64_be(record, time_bits);
        put_u32_be(record, msg.src);
        put_u32_be(record, msg.dst);
        put_u32_be(record, msg.type);
        put_u64_be(record, msg.wire_bytes);
        hasher.update(record);
        ++sends;
      });

  WorkloadParams wp;
  wp.kind = ArrivalKind::kAdversarial;
  wp.duration_ms = 600.0;
  wp.rate_hz = 30.0;
  wp.seed = seed;
  const ScheduleResult sched = schedule_workload(ctx, wp);
  ctx.engine.run_until(sched.horizon_ms + 5000.0);

  LoadRun out;
  out.trace_hash = hex_encode(crypto::digest_to_bytes(hasher.finish()));
  out.sends = sends;
  out.economics = render(analyze_attacks(ctx, sched.txs));
  return out;
}

class WorkloadWorkers : public ::testing::Test {
 protected:
  void check(const std::function<std::unique_ptr<protocols::Protocol>()>& make,
             std::uint64_t seed) {
    auto base_protocol = make();
    const LoadRun base = run_load(*base_protocol, 1, seed);
    ASSERT_GT(base.sends, 0u);
    // The attack machinery must actually have fired, or the economics
    // comparison is vacuous.
    ASSERT_NE(base.economics.substr(0, 2), "0/");
    for (const std::size_t workers : {2, 4}) {
      auto protocol = make();
      const LoadRun r = run_load(*protocol, workers, seed);
      EXPECT_EQ(r.trace_hash, base.trace_hash) << "workers=" << workers;
      EXPECT_EQ(r.sends, base.sends) << "workers=" << workers;
      EXPECT_EQ(r.economics, base.economics) << "workers=" << workers;
    }
  }
};

TEST_F(WorkloadWorkers, HermesLoadedTraceAndEconomicsIdentical) {
  check(
      [] {
        hermes_proto::HermesConfig cfg;
        cfg.f = 1;
        cfg.k = 4;
        cfg.builder.annealing.initial_temperature = 5.0;
        cfg.builder.annealing.min_temperature = 1.0;
        cfg.builder.annealing.cooling_rate = 0.8;
        cfg.builder.annealing.moves_per_temperature = 4;
        return std::make_unique<hermes_proto::HermesProtocol>(cfg);
      },
      2026);
}

TEST_F(WorkloadWorkers, NarwhalLoadedTraceAndEconomicsIdentical) {
  check([] { return std::make_unique<protocols::NarwhalProtocol>(); }, 2027);
}

TEST_F(WorkloadWorkers, L0LoadedTraceAndEconomicsIdentical) {
  check([] { return std::make_unique<protocols::L0Protocol>(); }, 2028);
}

TEST_F(WorkloadWorkers, MercuryLoadedTraceAndEconomicsIdentical) {
  check([] { return std::make_unique<protocols::MercuryProtocol>(); }, 2029);
}

}  // namespace
}  // namespace hermes::workload
