// Scenario fuzzer driver.
//
//   fuzz --runs N [--seed-base S] [--budget-ms M] [--corpus PATH]
//       batch mode: run N generated scenarios (seeds S, S+1, ...); on an
//       invariant failure, append the seed to the corpus, shrink the
//       scenario, print the minimal reproducer, and exit 1 at the end.
//       The sweep ends with a census: one line per failed checker with
//       how many seeds failed it and the first few of those seeds.
//   fuzz --replay SEED [--mutate NAME]
//       re-run one seed twice, verify the trace hash is identical, and
//       report invariant failures.
//   fuzz --print SEED
//       print the serialized scenario for a seed.
//   fuzz --replay-file PATH [--mutate NAME]
//       run a serialized scenario (corpus entry or shrinker output).
//   fuzz --hash-batch N [--seed-base S] [--extended]
//       print "seed trace-hash sends" for N generated scenarios; diffing
//       two such listings across an engine change proves (or refutes)
//       trace equivalence of the rewrite. Uses the legacy (non-extended)
//       generator so the listing stays comparable across corpus growth;
//       --extended uses the default generator instead, whose scenarios
//       also reach churn, view changes, digests and join admission.
//   fuzz --paper-scale N
//       scale the first benign HERMES scenario to N nodes and run it once
//       (nightly large-N smoke on the event engine; fails on any
//       invariant violation).
//   fuzz --recovery
//       self-healing smoke: crash f nodes mid-dissemination in an
//       otherwise benign HERMES scenario with the healing loop on; the
//       recovery-liveness and repair-convergence checkers must pass.
//   fuzz --churn
//       epoch-pipeline smoke: drive three consecutive leave/rejoin waves
//       through the join-admission path with the background pipeline on;
//       requires a clean invariant verdict (including the
//       epoch-transition-safety and transition-connectivity checkers),
//       at least three pipelined installs, zero stop-the-world advances,
//       and byte-identical traces across worker counts {1,2,4}.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"

namespace {

using namespace hermes;
using namespace hermes::fuzz;

int usage() {
  std::fprintf(stderr,
               "usage: fuzz --runs N [--seed-base S] [--budget-ms M] "
               "[--corpus PATH] [--mutate NAME]\n"
               "       fuzz --replay SEED [--mutate NAME]\n"
               "       fuzz --print SEED\n"
               "       fuzz --replay-file PATH [--mutate NAME]\n"
               "       fuzz --hash-batch N [--seed-base S] [--extended]\n"
               "       fuzz --paper-scale NODES\n"
               "       fuzz --recovery\n"
               "       fuzz --churn\n"
               "options: --workers N   engine worker threads (0 = hardware\n"
               "                       concurrency; default 1). The trace\n"
               "                       hash is worker-count invariant.\n");
  return 2;
}

std::optional<std::uint64_t> parse_u64(const char* s) {
  if (s == nullptr || *s == '\0') return std::nullopt;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

void print_failures(const RunResult& r) {
  for (const Failure& f : r.failures) {
    std::printf("  FAIL [%s] %s\n", f.checker.c_str(), f.detail.c_str());
  }
}

int replay_scenario(const Scenario& s, Mutation mutation,
                    std::size_t workers) {
  RunOptions opts;
  opts.mutation = mutation;
  opts.workers = workers;
  std::printf("%s\n", describe(s).c_str());
  const RunResult first = run_scenario(s, opts);
  const RunResult second = run_scenario(s, opts);
  std::printf("trace %s (%zu sends, %.0f ms)\n", first.trace_hash.c_str(),
              first.sends, first.sim_end_ms);
  if (first.trace_hash != second.trace_hash) {
    std::printf("NONDETERMINISTIC: second run hashed %s\n",
                second.trace_hash.c_str());
    return 1;
  }
  if (!first.ok()) {
    print_failures(first);
    return 1;
  }
  std::printf("ok\n");
  return 0;
}

int run_batch(std::uint64_t runs, std::uint64_t seed_base,
              std::uint64_t budget_ms, const std::string& corpus_path,
              Mutation mutation, std::size_t workers) {
  RunOptions opts;
  opts.mutation = mutation;
  opts.workers = workers;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t executed = 0;
  std::uint64_t failed = 0;
  // Checker name -> the seeds that failed it, ascending.
  std::map<std::string, std::vector<std::uint64_t>> census;
  for (std::uint64_t i = 0; i < runs; ++i) {
    if (budget_ms > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      if (static_cast<std::uint64_t>(elapsed) >= budget_ms) {
        std::printf("budget exhausted after %llu/%llu runs\n",
                    static_cast<unsigned long long>(executed),
                    static_cast<unsigned long long>(runs));
        break;
      }
    }
    const std::uint64_t seed = seed_base + i;
    const Scenario s = generate_scenario(seed);
    const RunResult r = run_scenario(s, opts);
    ++executed;
    if (r.ok()) continue;
    ++failed;
    std::set<std::string> checkers;
    for (const Failure& f : r.failures) checkers.insert(f.checker);
    for (const std::string& c : checkers) census[c].push_back(seed);
    std::printf("seed %llu FAILED: %s\n",
                static_cast<unsigned long long>(seed), describe(s).c_str());
    print_failures(r);
    if (!corpus_path.empty()) {
      std::ofstream corpus(corpus_path, std::ios::app);
      corpus << seed << " " << r.failures.front().checker << "\n";
    }
    ShrinkOptions sopts;
    sopts.run = opts;
    const ShrinkOutcome shrunk = shrink(s, r.failures, sopts);
    std::printf("shrunk (%zu steps accepted over %zu runs):\n%s",
                shrunk.removed, shrunk.runs,
                serialize(shrunk.minimal).c_str());
    std::printf("reproduce: fuzz --replay %llu\n",
                static_cast<unsigned long long>(seed));
  }
  std::printf("%llu/%llu runs ok\n",
              static_cast<unsigned long long>(executed - failed),
              static_cast<unsigned long long>(executed));
  constexpr std::size_t kCensusSeeds = 5;
  for (const auto& [checker, seeds] : census) {
    std::printf("census %s: %zu seeds failed, first", checker.c_str(),
                seeds.size());
    for (std::size_t i = 0; i < seeds.size() && i < kCensusSeeds; ++i) {
      std::printf(" %llu", static_cast<unsigned long long>(seeds[i]));
    }
    std::printf("\n");
  }
  return failed == 0 ? 0 : 1;
}

// Prints one "seed trace-hash sends" line per generated scenario. Two
// listings taken before and after an engine change must be byte-identical
// for the change to count as trace-preserving.
int hash_batch(std::uint64_t runs, std::uint64_t seed_base, bool extended,
               std::size_t workers) {
  RunOptions opts;
  opts.workers = workers;
  for (std::uint64_t i = 0; i < runs; ++i) {
    const std::uint64_t seed = seed_base + i;
    // Legacy sampling by default: the listing is a long-lived
    // trace-equivalence baseline, so new fault modes must not perturb it.
    const RunResult r = run_scenario(generate_scenario(seed, extended), opts);
    std::printf("%llu %s %zu\n", static_cast<unsigned long long>(seed),
                r.trace_hash.c_str(), r.sends);
  }
  return 0;
}

// Scales the first benign HERMES scenario (by seed order) to `nodes`
// participants and runs it once. Node-indexed scenario fields (committee,
// injection senders, churn targets) were drawn below the generator's small
// node count, so they stay valid when the world only grows.
int paper_scale(std::uint64_t nodes, std::size_t workers) {
  std::uint64_t seed = 1;
  Scenario s = generate_scenario(seed);
  while (!(s.hermes() && s.benign())) s = generate_scenario(++seed);
  s.nodes = static_cast<std::size_t>(nodes);
  std::printf("paper-scale: seed %llu scaled to %zu nodes\n%s",
              static_cast<unsigned long long>(seed), s.nodes,
              describe(s).c_str());
  RunOptions opts;
  opts.workers = workers;
  const auto start = std::chrono::steady_clock::now();
  const RunResult r = run_scenario(s, opts);
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  std::printf("\ntrace %s (%zu sends, %.0f sim-ms, %lld wall-ms)\n",
              r.trace_hash.c_str(), r.sends, r.sim_end_ms,
              static_cast<long long>(wall_ms));
  if (!r.ok()) {
    print_failures(r);
    return 1;
  }
  std::printf("ok\n");
  return 0;
}

// Deterministic self-healing smoke: take the first benign HERMES scenario
// with the fallback on, switch the healing loop on, and crash f
// non-committee non-sender nodes right after the first injection. With the
// honest core connected, the recovery-liveness checker then demands that
// every certified transaction reaches every surviving honest node.
int recovery_smoke(std::size_t workers) {
  std::uint64_t seed = 1;
  Scenario s = generate_scenario(seed, false);
  while (!(s.hermes() && s.benign() && s.enable_fallback)) {
    s = generate_scenario(++seed, false);
  }
  s.self_healing = true;
  std::unordered_set<net::NodeId> exempt(s.committee.begin(),
                                         s.committee.end());
  for (const Injection& inj : s.injections) exempt.insert(inj.sender);
  ChurnEvent crash;
  crash.at_ms = s.injections.front().at_ms + 5.0;
  for (net::NodeId v = 0; v < s.nodes && crash.nodes.size() < s.f; ++v) {
    if (exempt.count(v) == 0) crash.nodes.push_back(v);
  }
  s.churn.push_back(std::move(crash));
  s.drain_ms = std::max(s.drain_ms, 12000.0);
  std::printf("recovery smoke: seed %llu\n%s\n",
              static_cast<unsigned long long>(seed), describe(s).c_str());
  RunOptions opts;
  opts.workers = workers;
  const RunResult r = run_scenario(s, opts);
  std::printf("trace %s (%zu sends, %.0f ms)\n", r.trace_hash.c_str(),
              r.sends, r.sim_end_ms);
  if (!r.ok()) {
    print_failures(r);
    return 1;
  }
  std::printf("ok\n");
  return 0;
}

// Deterministic epoch-pipeline smoke: the first benign HERMES scenario
// with the fallback on, healing + join admission + pipeline enabled, and
// three sequential leave/rejoin waves of f non-committee non-sender nodes.
// Keepalive injections run through every crash window so silence strikes
// accrue and the departures are actually detected (a silent network never
// convicts anyone). Each wave must be absorbed by a pipelined background
// rebuild — never a stop-the-world one — and the whole run must be
// worker-count invariant.
int churn_smoke() {
  std::uint64_t seed = 1;
  Scenario s = generate_scenario(seed, false);
  while (!(s.hermes() && s.benign() && s.enable_fallback)) {
    s = generate_scenario(++seed, false);
  }
  s.self_healing = true;
  s.epoch_pipeline = true;
  std::unordered_set<net::NodeId> exempt(s.committee.begin(),
                                         s.committee.end());
  for (const Injection& inj : s.injections) exempt.insert(inj.sender);
  std::vector<net::NodeId> victims;
  for (net::NodeId v = 0; v < s.nodes && victims.size() < s.f; ++v) {
    if (exempt.count(v) == 0) victims.push_back(v);
  }
  if (victims.empty()) {
    std::fprintf(stderr, "churn smoke: no eligible victims\n");
    return 2;
  }
  const net::NodeId pulse_sender = s.injections.front().sender;
  double wt = 0.0;
  for (const Injection& inj : s.injections) wt = std::max(wt, inj.at_ms);
  wt += 300.0;
  constexpr int kWaves = 3;
  for (int wave = 0; wave < kWaves; ++wave) {
    ChurnEvent crash;
    crash.at_ms = wt;
    crash.nodes = victims;
    s.churn.push_back(crash);
    // Keepalive pulses inside the crash window: overlay traffic the
    // victims stay silent on, which is what earns them silence strikes.
    for (double off : {150.0, 400.0, 650.0, 900.0, 1150.0}) {
      Injection pulse;
      pulse.at_ms = wt + off;
      pulse.sender = pulse_sender;
      s.injections.push_back(pulse);
    }
    ChurnEvent rejoin;
    rejoin.at_ms = wt + 1800.0;
    rejoin.recover = true;
    rejoin.rejoin = true;
    rejoin.nodes = victims;
    s.churn.push_back(rejoin);
    wt = rejoin.at_ms + 1200.0;
  }
  s.drain_ms = std::max(s.drain_ms, 14000.0);
  std::printf("churn smoke: seed %llu, %d waves of %zu node(s)\n%s\n",
              static_cast<unsigned long long>(seed), kWaves, victims.size(),
              describe(s).c_str());

  RunResult base;
  for (const std::size_t workers : {1, 2, 4}) {
    RunOptions opts;
    opts.workers = workers;
    const RunResult r = run_scenario(s, opts);
    std::printf(
        "workers=%zu trace %s (%zu sends, %llu pipelined, %llu stw, "
        "%llu invalidations, %llu absorbed)\n",
        workers, r.trace_hash.c_str(), r.sends,
        static_cast<unsigned long long>(r.pipelined_installs),
        static_cast<unsigned long long>(r.stop_the_world_advances),
        static_cast<unsigned long long>(r.pipeline_invalidations),
        static_cast<unsigned long long>(r.deltas_absorbed));
    if (workers == 1) {
      base = r;
    } else if (r.trace_hash != base.trace_hash) {
      std::printf("NONDETERMINISTIC: workers=%zu diverged from workers=1\n",
                  workers);
      return 1;
    }
  }
  if (!base.ok()) {
    print_failures(base);
    return 1;
  }
  if (base.pipelined_installs < kWaves) {
    std::printf("FAIL: expected >= %d pipelined installs, saw %llu\n", kWaves,
                static_cast<unsigned long long>(base.pipelined_installs));
    return 1;
  }
  if (base.stop_the_world_advances != 0) {
    std::printf("FAIL: expected zero stop-the-world advances, saw %llu\n",
                static_cast<unsigned long long>(base.stop_the_world_advances));
    return 1;
  }
  std::printf("ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t runs = 0;
  std::uint64_t seed_base = 1;
  std::uint64_t budget_ms = 0;
  std::string corpus_path;
  std::optional<std::uint64_t> replay_seed;
  std::optional<std::uint64_t> print_seed;
  std::optional<std::uint64_t> hash_batch_runs;
  std::optional<std::uint64_t> paper_scale_nodes;
  std::string replay_file;
  bool extended = false;
  bool recovery = false;
  bool churn = false;
  Mutation mutation = Mutation::kNone;
  std::size_t workers = 1;  // 0 = hardware concurrency (engine resolves)

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = (i + 1 < argc) ? argv[i + 1] : nullptr;
    if (arg == "--runs") {
      const auto v = parse_u64(value);
      if (!v) return usage();
      runs = *v;
      ++i;
    } else if (arg == "--seed-base") {
      const auto v = parse_u64(value);
      if (!v) return usage();
      seed_base = *v;
      ++i;
    } else if (arg == "--budget-ms") {
      const auto v = parse_u64(value);
      if (!v) return usage();
      budget_ms = *v;
      ++i;
    } else if (arg == "--corpus") {
      if (value == nullptr) return usage();
      corpus_path = value;
      ++i;
    } else if (arg == "--replay") {
      const auto v = parse_u64(value);
      if (!v) return usage();
      replay_seed = *v;
      ++i;
    } else if (arg == "--print") {
      const auto v = parse_u64(value);
      if (!v) return usage();
      print_seed = *v;
      ++i;
    } else if (arg == "--hash-batch") {
      const auto v = parse_u64(value);
      if (!v) return usage();
      hash_batch_runs = *v;
      ++i;
    } else if (arg == "--paper-scale") {
      const auto v = parse_u64(value);
      if (!v || *v < 10) return usage();
      paper_scale_nodes = *v;
      ++i;
    } else if (arg == "--replay-file") {
      if (value == nullptr) return usage();
      replay_file = value;
      ++i;
    } else if (arg == "--extended") {
      extended = true;
    } else if (arg == "--recovery") {
      recovery = true;
    } else if (arg == "--churn") {
      churn = true;
    } else if (arg == "--workers") {
      const auto v = parse_u64(value);
      if (!v) return usage();
      workers = static_cast<std::size_t>(*v);
      ++i;
    } else if (arg == "--mutate") {
      if (value == nullptr) return usage();
      const auto m = mutation_from(value);
      if (!m) {
        std::fprintf(stderr, "unknown mutation: %s\n", value);
        return 2;
      }
      mutation = *m;
      ++i;
    } else {
      return usage();
    }
  }

  if (hash_batch_runs) {
    return hash_batch(*hash_batch_runs, seed_base, extended, workers);
  }
  if (recovery) {
    return recovery_smoke(workers);
  }
  if (churn) {
    return churn_smoke();
  }
  if (paper_scale_nodes) {
    return paper_scale(*paper_scale_nodes, workers);
  }
  if (print_seed) {
    const Scenario s = generate_scenario(*print_seed);
    std::printf("%s", serialize(s).c_str());
    return 0;
  }
  if (replay_seed) {
    return replay_scenario(generate_scenario(*replay_seed), mutation, workers);
  }
  if (!replay_file.empty()) {
    std::ifstream in(replay_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", replay_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const auto s = parse_scenario(text.str());
    if (!s) {
      std::fprintf(stderr, "malformed scenario file %s\n", replay_file.c_str());
      return 2;
    }
    return replay_scenario(*s, mutation, workers);
  }
  if (runs > 0) {
    return run_batch(runs, seed_base, budget_ms, corpus_path, mutation,
                     workers);
  }
  return usage();
}
