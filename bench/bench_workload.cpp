// Front-running economics under sustained load.
//
// Drives every protocol (HERMES, LØ, Narwhal, Mercury) through the
// IDENTICAL seeded Poisson workload — same topology, same behavior
// assignment, same arrival schedule, same fee bids — under fee-priority
// mempool pressure, twice per protocol:
//
//   poisson      attack machinery off: baseline throughput / mempool
//                pressure / propagation latency under load
//   adversarial  front-runner nodes race every victim send they observe;
//                every attack is judged against ALL honest proposers and
//                priced with the fee model (workload/economics.hpp),
//                bucketed by the attacker's hop distance from the victim
//
// Prints a plain table and, with --json PATH, a JSON report consumed by
// tools/run_benches.sh to produce BENCH_workload.json.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench/common.hpp"
#include "workload/driver.hpp"
#include "workload/economics.hpp"

namespace {

using namespace hermes;

struct WorkloadOptions {
  std::size_t nodes = 120;
  std::uint64_t seed = 20250705;
  double rate_hz = 40.0;
  double duration_ms = 1500.0;
  double drain_ms = 6000.0;
  std::size_t capacity = 48;
  double frontrunner_fraction = 0.15;
  // --signer real runs HERMES's TRS committee on genuine Shoup threshold
  // RSA (--rsa-bits key size) instead of the HMAC simulation scheme.
  bool real_signer = false;
  std::size_t rsa_bits = 1024;
  std::string json_path;

  static WorkloadOptions parse(int argc, char** argv) {
    WorkloadOptions opt;
    for (int i = 1; i < argc; ++i) {
      auto grab = [&](const char* flag) -> const char* {
        if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[++i];
        return nullptr;
      };
      if (const char* v = grab("--nodes")) opt.nodes = std::stoul(v);
      else if (const char* v2 = grab("--seed")) opt.seed = std::stoull(v2);
      else if (const char* v3 = grab("--rate")) opt.rate_hz = std::stod(v3);
      else if (const char* v4 = grab("--duration")) opt.duration_ms = std::stod(v4);
      else if (const char* v5 = grab("--capacity")) opt.capacity = std::stoul(v5);
      else if (const char* v6 = grab("--frac")) opt.frontrunner_fraction = std::stod(v6);
      else if (const char* v7 = grab("--json")) opt.json_path = v7;
      else if (const char* v8 = grab("--signer")) opt.real_signer = std::strcmp(v8, "real") == 0;
      else if (const char* v9 = grab("--rsa-bits")) opt.rsa_bits = std::stoul(v9);
    }
    return opt;
  }
};

struct LoadStats {
  std::size_t txs = 0;
  double mean_coverage = 0.0;
  double mean_latency_ms = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  // Mempool pressure aggregated over honest nodes.
  std::size_t admitted = 0;
  std::size_t evicted = 0;
  std::size_t rejected = 0;
};

struct ProtocolRun {
  LoadStats load;
  workload::EconomicsReport economics;  // adversarial run only
};

struct Entry {
  const char* name;
  std::function<std::unique_ptr<protocols::Protocol>()> make;
};

LoadStats collect_load(const protocols::ExperimentContext& ctx,
                       const workload::ScheduleResult& sched) {
  LoadStats out;
  out.txs = sched.txs.size();
  RunningStats lat;
  for (const auto& tx : sched.txs) {
    out.mean_coverage += protocols::honest_coverage(ctx, tx);
    for (double l : ctx.tracker.latencies(tx.id)) lat.add(l);
  }
  if (!sched.txs.empty()) {
    out.mean_coverage /= static_cast<double>(sched.txs.size());
  }
  out.mean_latency_ms = lat.mean();
  out.messages = ctx.network.total().messages_sent;
  out.bytes = ctx.network.total().bytes_sent;
  for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
    if (!ctx.is_honest(v)) continue;
    const auto& pool = ctx.nodes[v]->pool();
    out.admitted += pool.admitted_total();
    out.evicted += pool.evicted_total();
    out.rejected += pool.rejected_total();
  }
  return out;
}

ProtocolRun run_protocol(const Entry& entry, const WorkloadOptions& opt,
                         bool adversarial) {
  auto protocol = entry.make();
  protocols::ExperimentContext ctx(
      bench::make_bench_topology(opt.nodes, opt.seed), {},
      opt.seed ^ 0x5eedULL);
  ctx.assign_behaviors(opt.frontrunner_fraction,
                       protocols::Behavior::kFrontRunner);
  // Capacity is applied at node construction, so set it before populate.
  ctx.mempool_capacity = opt.capacity;
  protocols::populate(ctx, *protocol);

  workload::WorkloadParams wp;
  wp.kind = adversarial ? workload::ArrivalKind::kAdversarial
                        : workload::ArrivalKind::kPoisson;
  wp.duration_ms = opt.duration_ms;
  wp.rate_hz = opt.rate_hz;
  wp.seed = opt.seed;
  const workload::ScheduleResult sched =
      workload::schedule_workload(ctx, wp);
  ctx.engine.run_until(sched.horizon_ms + opt.drain_ms);

  ProtocolRun run;
  run.load = collect_load(ctx, sched);
  if (adversarial) run.economics = workload::analyze_attacks(ctx, sched.txs);
  return run;
}

void print_json(std::FILE* f, const WorkloadOptions& opt,
                std::span<const Entry> entries,
                std::span<const ProtocolRun> poisson,
                std::span<const ProtocolRun> adversarial) {
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"params\": {\"nodes\": %zu, \"seed\": %" PRIu64
               ", \"rate_hz\": %.3f, \"duration_ms\": %.1f, \"capacity\": "
               "%zu, \"frontrunner_fraction\": %.3f, \"signer\": \"%s\"},\n",
               opt.nodes, opt.seed, opt.rate_hz, opt.duration_ms, opt.capacity,
               opt.frontrunner_fraction, opt.real_signer ? "real" : "sim");
  std::fprintf(f, "  \"protocols\": {\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const LoadStats& p = poisson[i].load;
    const LoadStats& a = adversarial[i].load;
    const workload::EconomicsReport& eco = adversarial[i].economics;
    std::fprintf(f, "    \"%s\": {\n", entries[i].name);
    std::fprintf(f,
                 "      \"poisson\": {\"txs\": %zu, \"coverage\": %.4f, "
                 "\"mean_latency_ms\": %.3f, \"messages\": %" PRIu64
                 ", \"bytes\": %" PRIu64
                 ", \"admitted\": %zu, \"evicted\": %zu, \"rejected\": "
                 "%zu},\n",
                 p.txs, p.mean_coverage, p.mean_latency_ms, p.messages,
                 p.bytes, p.admitted, p.evicted, p.rejected);
    std::fprintf(f,
                 "      \"adversarial\": {\"txs\": %zu, \"coverage\": %.4f, "
                 "\"evicted\": %zu, \"attacked\": %zu, \"insertions\": %zu, "
                 "\"sandwiches\": %zu, \"insertion_rate\": %.4f, "
                 "\"sandwich_rate\": %.4f, \"total_profit\": %" PRId64
                 ", \"mean_profit\": %.3f,\n",
                 a.txs, a.mean_coverage, a.evicted, eco.attacked,
                 eco.insertions, eco.sandwiches, eco.insertion_rate(),
                 eco.sandwich_rate(), eco.total_profit, eco.mean_profit());
    std::fprintf(f, "        \"profit_by_distance\": [");
    for (std::size_t d = 0; d < eco.by_distance.size(); ++d) {
      const workload::PositionBucket& b = eco.by_distance[d];
      std::fprintf(f,
                   "%s{\"hops\": %zu, \"attacks\": %zu, \"successes\": %zu, "
                   "\"profit\": %" PRId64 "}",
                   d == 0 ? "" : ", ", d, b.attacks, b.successes, b.profit);
    }
    std::fprintf(f, "]}\n");
    std::fprintf(f, "    }%s\n", i + 1 == entries.size() ? "" : ",");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadOptions opt = WorkloadOptions::parse(argc, argv);

  const Entry entries[] = {
      {"hermes",
       [&opt] {
         hermes_proto::HermesConfig cfg = bench::bench_hermes_config();
         cfg.use_real_threshold_crypto = opt.real_signer;
         cfg.real_threshold_rsa_bits = opt.rsa_bits;
         return std::make_unique<hermes_proto::HermesProtocol>(cfg);
       }},
      {"l0", [] { return std::make_unique<protocols::L0Protocol>(); }},
      {"narwhal", [] { return std::make_unique<protocols::NarwhalProtocol>(); }},
      {"mercury", [] { return std::make_unique<protocols::MercuryProtocol>(); }},
  };
  constexpr std::size_t kProtocols = std::size(entries);

  std::printf(
      "Workload economics — N=%zu, %.0f Hz Poisson x %.0f ms, mempool "
      "capacity %zu, %.0f%% front-runners, seed %" PRIu64 ", signer %s\n",
      opt.nodes, opt.rate_hz, opt.duration_ms, opt.capacity,
      opt.frontrunner_fraction * 100.0, opt.seed,
      opt.real_signer ? "real" : "sim");

  std::vector<ProtocolRun> poisson(kProtocols);
  std::vector<ProtocolRun> adversarial(kProtocols);

  std::printf("%-10s %6s %8s %9s %9s %9s\n", "poisson", "txs", "coverage",
              "lat(ms)", "evicted", "rejected");
  for (std::size_t i = 0; i < kProtocols; ++i) {
    poisson[i] = run_protocol(entries[i], opt, /*adversarial=*/false);
    const LoadStats& s = poisson[i].load;
    std::printf("%-10s %6zu %7.1f%% %9.2f %9zu %9zu\n", entries[i].name,
                s.txs, s.mean_coverage * 100.0, s.mean_latency_ms, s.evicted,
                s.rejected);
  }

  std::printf("%-10s %8s %9s %9s %11s %11s\n", "attack", "attacked",
              "insert%", "sandwich%", "profit/atk", "total");
  for (std::size_t i = 0; i < kProtocols; ++i) {
    adversarial[i] = run_protocol(entries[i], opt, /*adversarial=*/true);
    const workload::EconomicsReport& eco = adversarial[i].economics;
    std::printf("%-10s %8zu %8.1f%% %8.1f%% %11.1f %11" PRId64 "\n",
                entries[i].name, eco.attacked, eco.insertion_rate() * 100.0,
                eco.sandwich_rate() * 100.0, eco.mean_profit(),
                eco.total_profit);
  }

  std::printf("profit by attacker hop distance (insert-success/attacks)\n");
  std::printf("%-10s", "");
  for (std::size_t d = 0; d <= workload::kMaxDistanceBucket; ++d) {
    std::printf(d == workload::kMaxDistanceBucket ? " %8zu+" : " %9zu", d);
  }
  std::printf("\n");
  for (std::size_t i = 0; i < kProtocols; ++i) {
    std::printf("%-10s", entries[i].name);
    for (const workload::PositionBucket& b : adversarial[i].economics.by_distance) {
      if (b.attacks == 0) {
        std::printf(" %9s", "-");
      } else {
        char cell[32];
        std::snprintf(cell, sizeof(cell), "%zu/%zu", b.successes, b.attacks);
        std::printf(" %9s", cell);
      }
    }
    std::printf("\n");
  }

  if (!opt.json_path.empty()) {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opt.json_path.c_str());
      return 1;
    }
    print_json(f, opt, entries, poisson, adversarial);
    std::fclose(f);
  }
  return 0;
}
