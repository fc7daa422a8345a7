// Simulator hot-path benchmarks (google-benchmark): raw event-engine
// scheduling throughput, the Network::send delivery path, and end-to-end
// HERMES dissemination at paper scale. tools/run_benches.sh runs these and
// records the numbers in BENCH_sim.json; the committed baseline block in
// that file is the pre-rewrite engine (std::function closures on a binary
// heap, RTTI message dispatch, unordered_map pair-latency cache).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "sim/engine.hpp"

namespace {

using namespace hermes;

// --- raw engine microbenches ------------------------------------------------

// The microbenches time one region lane, the queue every protocol run
// drains: the engine has a single lane, events are scheduled under a
// ShardScope, and the lookahead exceeds every delay drawn below, so a
// drain is one window.
constexpr double kLaneLookaheadMs = 2000.0;

void configure_one_lane(sim::Engine& e) {
  e.configure_shards(1, kLaneLookaheadMs);
}

// Schedule n events at pre-generated pseudo-random offsets, then drain the
// queue. Dominated by event allocation plus priority-queue churn.
void BM_EngineScheduleDrain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4242);
  std::vector<double> delays(n);
  for (auto& d : delays) d = rng.uniform_real(0.0, 1000.0);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Engine e;
    configure_one_lane(e);
    {
      sim::Engine::ShardScope scope(e, 0);
      for (std::size_t i = 0; i < n; ++i) {
        e.schedule(delays[i], [&sink] { ++sink; });
      }
    }
    e.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineScheduleDrain)->Arg(1024)->Arg(65536)->Arg(1 << 20);

// Same drain with a capture the size of a network delivery closure
// (Network* + Message is ~48 bytes), the dominant event shape in protocol
// runs. The pre-rewrite std::function heap-allocates every one of these.
void BM_EngineScheduleDrainDeliverySized(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4242);
  std::vector<double> delays(n);
  for (auto& d : delays) d = rng.uniform_real(0.0, 1000.0);
  struct Payload {
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    std::shared_ptr<const int> body;
  };
  auto shared_body = std::make_shared<const int>(7);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Engine e;
    configure_one_lane(e);
    {
      sim::Engine::ShardScope scope(e, 0);
      for (std::size_t i = 0; i < n; ++i) {
        Payload p;
        p.body = shared_body;
        e.schedule(delays[i], [&sink, p] { sink += p.a; });
      }
    }
    e.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineScheduleDrainDeliverySized)->Arg(1024)->Arg(65536);

// Steady-state timer pattern: `timers` self-rescheduling events keep a
// small queue busy for a long run, the shape protocol timers (gossip
// rounds, fallback offers, VCS ticks) produce. A region lane checks an
// event cap only at window barriers, so the run stops at a deadline that
// yields about 2^18 events (a timer fires every ~3.9 ms on average) and
// counts the events run_until returns.
void BM_EngineSteadyStateTimers(benchmark::State& state) {
  const std::size_t timers = static_cast<std::size_t>(state.range(0));
  const double deadline_ms = static_cast<double>(1 << 20) /
                             static_cast<double>(timers);
  std::uint64_t sink = 0;
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::Engine e;
    configure_one_lane(e);
    struct Timer {
      sim::Engine* engine;
      double period;
      std::uint64_t* sink;
      void operator()() {
        ++*sink;
        engine->schedule(period, *this);
      }
    };
    Rng rng(99);
    {
      sim::Engine::ShardScope scope(e, 0);
      for (std::size_t i = 0; i < timers; ++i) {
        e.schedule(rng.uniform_real(0.0, 5.0),
                   Timer{&e, rng.uniform_real(1.0, 10.0), &sink});
      }
    }
    events += static_cast<std::int64_t>(e.run_until(deadline_ms));
    e.clear();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_EngineSteadyStateTimers)->Arg(64)->Arg(4096);

// --- Network::send path -----------------------------------------------------

struct BlastBody final : sim::Body<BlastBody> {
  std::uint64_t payload = 0;
};

class BlastNode final : public sim::Node {
 public:
  using sim::Node::Node;
  std::uint64_t received = 0;
  void on_message(const sim::Message& msg) override {
    received += msg.as<BlastBody>().payload;
  }
  void blast(net::NodeId dst, const std::shared_ptr<const BlastBody>& body) {
    send_to(dst, /*type=*/1, /*wire_bytes=*/256, body);
  }
};

// Random point-to-point sends across a mid-size topology: exercises the
// pair-latency cache, uplink serialization accounting, the delivery
// closure, and typed dispatch on receive.
void BM_NetworkRandomSends(benchmark::State& state) {
  const std::size_t n = 256;
  constexpr std::size_t kSends = 1 << 16;
  const net::Topology topo = bench::make_bench_topology(n, 42);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Engine engine;
    sim::Network network(engine, topo, sim::NetworkParams{}, Rng(7));
    std::vector<std::unique_ptr<BlastNode>> nodes;
    for (net::NodeId v = 0; v < n; ++v) {
      nodes.push_back(std::make_unique<BlastNode>(network, v));
    }
    auto body = std::make_shared<const BlastBody>();
    Rng rng(13);
    for (std::size_t i = 0; i < kSends; ++i) {
      const auto src = static_cast<net::NodeId>(rng.uniform_u64(n));
      auto dst = static_cast<net::NodeId>(rng.uniform_u64(n - 1));
      if (dst >= src) ++dst;
      nodes[src]->blast(dst, body);
      if ((i & 1023) == 0) engine.run_until(engine.now() + 1.0);
    }
    engine.run();
    sink += nodes[0]->received;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSends));
}
BENCHMARK(BM_NetworkRandomSends)->Unit(benchmark::kMillisecond);

// --- end-to-end dissemination ----------------------------------------------

// Full protocol runs, timed over injection + drain only (world construction
// and overlay build excluded via manual timing). The events_per_sec counter
// is the headline sim-throughput number BENCH_sim.json tracks.
// `workers` drives the region-sharded engine; the simulated trace (sends,
// events, delivery times) is identical for every value, only wall time
// changes — which is exactly what the workers sweep measures.
template <typename MakeProtocol>
void dissemination_bench(benchmark::State& state, std::size_t nodes,
                         MakeProtocol&& make_protocol, std::size_t txs,
                         double gap_ms, double drain_ms,
                         std::size_t workers = 1) {
  std::uint64_t total_events = 0;
  std::uint64_t total_sends = 0;
  for (auto _ : state) {
    auto protocol = make_protocol();
    sim::NetworkParams np;
    np.workers = workers;
    protocols::ExperimentContext ctx(bench::make_bench_topology(nodes, 42),
                                     np, 42 ^ 0x5eedULL);
    protocols::populate(ctx, *protocol);
    Rng workload(42 ^ 0x770a1cULL);

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < txs; ++i) {
      protocols::inject_tx(ctx, ctx.random_honest(workload));
      events += ctx.engine.run_until(ctx.engine.now() + gap_ms);
    }
    events += ctx.engine.run_until(ctx.engine.now() + drain_ms);
    const auto t1 = std::chrono::steady_clock::now();

    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
    total_events += events;
    total_sends += ctx.network.total().messages_sent;
  }
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(total_events) /
      static_cast<double>(state.iterations()));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(total_events), benchmark::Counter::kIsRate);
  state.counters["sends"] = benchmark::Counter(
      static_cast<double>(total_sends) /
      static_cast<double>(state.iterations()));
}

// --signer real switches the TRS committee from the HMAC simulation scheme
// to genuine Shoup threshold RSA (key size --rsa-bits); key generation
// happens during protocol construction, outside the manually-timed region,
// so the measured delta is pure per-transaction signing/verify/combine cost.
bool g_real_signer = false;
std::size_t g_signer_rsa_bits = 1024;

// HERMES configured like the fuzzer: k = 3 overlays and a short annealing
// schedule so overlay construction stays a fixed small prologue and the
// measurement tracks the dissemination hot path.
hermes_proto::HermesConfig scale_hermes_config() {
  hermes_proto::HermesConfig cfg = bench::bench_hermes_config(/*f=*/1, /*k=*/3);
  cfg.builder.annealing.initial_temperature = 5.0;
  cfg.builder.annealing.min_temperature = 1.0;
  cfg.builder.annealing.cooling_rate = 0.8;
  cfg.builder.annealing.moves_per_temperature = 4;
  cfg.use_real_threshold_crypto = g_real_signer;
  cfg.real_threshold_rsa_bits = g_signer_rsa_bits;
  return cfg;
}

void BM_HermesDissemination(benchmark::State& state) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  dissemination_bench(
      state, nodes,
      [] {
        return std::make_unique<hermes_proto::HermesProtocol>(
            scale_hermes_config());
      },
      /*txs=*/10, /*gap_ms=*/100.0, /*drain_ms=*/2000.0);
}
BENCHMARK(BM_HermesDissemination)
    ->Arg(500)
    ->Arg(2000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Degraded-mode dissemination: three sequential crashes erode the trees'
// f = 1 redundancy margin, then a burst of transactions must still reach
// every live honest node. Arg(0) = fallback-only recovery (self-healing
// off: holes are filled by the delayed offer/pull gossip); Arg(1) = the
// self-healing loop (silence detection -> local repair keeps routing
// on-tree). Counters:
//   recovery_ms    mean sim-time from injection until the LAST live honest
//                  node holds the transaction (time-to-recover)
//   offtree_sends  fallback requests + payloads during the degraded phase
//                  (the message overhead of recovering off-tree)
//   missing        measured txs that never reached some live honest node
// The view-change threshold is pinned high so the healing run stays in the
// local-repair regime — this bench isolates repair, not epoch rebuilds.
void BM_DegradedDissemination(benchmark::State& state) {
  const bool healing = state.range(0) != 0;
  const std::size_t nodes = 150;
  constexpr std::size_t kCrashes = 3;
  constexpr std::size_t kMeasuredTxs = 8;
  double total_recovery = 0.0;
  std::size_t recovered = 0;
  std::uint64_t offtree = 0;
  std::uint64_t missing = 0;
  std::uint64_t total_sends = 0;
  for (auto _ : state) {
    hermes_proto::HermesConfig cfg = scale_hermes_config();
    cfg.enable_self_healing = healing;
    cfg.view_change_threshold = 100.0;
    // Warm traffic runs at a deliberately low rate (the committee's Bracha
    // round is several sequential hops, so a dense single-origin stream
    // would measure queueing, not recovery). A wider health tick keeps the
    // per-tree idle window larger than the inter-arrival gap.
    cfg.health_tick_ms = 500.0;
    auto protocol = std::make_unique<hermes_proto::HermesProtocol>(cfg);
    protocols::ExperimentContext ctx(bench::make_bench_topology(nodes, 42),
                                     sim::NetworkParams{}, 42 ^ 0x5eedULL);
    protocols::populate(ctx, *protocol);
    const auto shared = protocol->shared();

    // Victims: non-committee relays (nodes somebody depends on in at least
    // one tree). Sender: a live non-committee node.
    std::vector<net::NodeId> victims;
    for (net::NodeId v = 0; v < nodes && victims.size() < kCrashes; ++v) {
      if (shared->is_committee_member(v)) continue;
      for (const auto& ov : shared->overlays) {
        if (!ov.successors(v).empty()) {
          victims.push_back(v);
          break;
        }
      }
    }
    // Rotate origins so no single sender's TRS stream serializes the run.
    std::vector<net::NodeId> senders;
    for (net::NodeId v = 0; v < nodes && senders.size() < 8; ++v) {
      if (shared->is_committee_member(v) ||
          std::find(victims.begin(), victims.end(), v) != victims.end()) {
        continue;
      }
      senders.push_back(v);
    }
    std::size_t next_sender = 0;
    const auto pick_sender = [&] {
      const net::NodeId s = senders[next_sender];
      next_sender = (next_sender + 1) % senders.size();
      return s;
    };

    bool counting = false;
    std::uint64_t offtree_run = 0;
    ctx.network.set_send_tap(
        [&](const sim::Message& m, sim::SimTime) {
          if (!counting) return;
          if (m.type == hermes_proto::HermesNode::kMsgFallback ||
              m.type == hermes_proto::HermesNode::kMsgFallbackRequest) {
            ++offtree_run;
          }
        });

    const auto t0 = std::chrono::steady_clock::now();
    const auto warm = [&](int steps) {
      for (int i = 0; i < steps; ++i) {
        protocols::inject_tx(ctx, pick_sender());
        ctx.engine.run_until(ctx.engine.now() + 250.0);
      }
    };
    warm(6);
    // Sequential churn: each crash is followed by enough warm traffic for
    // the healing run to detect the silence and repair before the next one.
    for (net::NodeId victim : victims) {
      ctx.network.set_crashed(victim, true);
      warm(8);
    }
    counting = true;
    struct Measured {
      std::uint64_t tx_id;
      net::NodeId origin;
      double injected_at;
    };
    std::vector<Measured> measured;
    for (std::size_t i = 0; i < kMeasuredTxs; ++i) {
      const net::NodeId origin = pick_sender();
      const auto tx = protocols::inject_tx(ctx, origin);
      measured.push_back(Measured{tx.id, origin, ctx.engine.now()});
      ctx.engine.run_until(ctx.engine.now() + 300.0);
    }
    ctx.engine.run_until(ctx.engine.now() + 6000.0);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());

    for (const auto& [tx_id, origin, injected_at] : measured) {
      double last = injected_at;
      bool complete = true;
      for (net::NodeId v = 0; v < nodes; ++v) {
        if (v == origin || !ctx.is_honest(v) || ctx.network.is_crashed(v)) {
          continue;
        }
        if (!ctx.tracker.delivered(tx_id, v)) {
          complete = false;
          break;
        }
        last = std::max(last, ctx.tracker.delivery_time(tx_id, v));
      }
      if (complete) {
        total_recovery += last - injected_at;
        ++recovered;
      } else {
        ++missing;
      }
    }
    offtree += offtree_run;
    total_sends += ctx.network.total().messages_sent;
  }
  state.counters["recovery_ms"] = benchmark::Counter(
      recovered == 0 ? 0.0
                     : total_recovery / static_cast<double>(recovered));
  state.counters["offtree_sends"] = benchmark::Counter(
      static_cast<double>(offtree) / static_cast<double>(state.iterations()));
  state.counters["missing"] =
      benchmark::Counter(static_cast<double>(missing));
  state.counters["sends"] = benchmark::Counter(
      static_cast<double>(total_sends) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_DegradedDissemination)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Permissionless churn: two leave/rejoin waves roll through the network
// while transactions keep flowing. Arg(0) = stop-the-world recovery (the
// health layer's view change rebuilds all k trees from scratch on the
// serving path as soon as the wave's departures convict); Arg(1) = the
// pipelined epoch transition (epoch e keeps serving while e+1 warm-anneals
// in the background; joins are admitted incrementally, zero scratch
// rebuilds). Counters:
//   recovery_ms       mean sim-time from injection to the LAST live honest
//                     node holding the tx, over txs injected mid-churn
//   epochs_pipelined  background (pipelined) epoch installs
//   epochs_stw        stop-the-world scratch rebuilds
//   missing           measured txs that never covered the live honest set
//   sends             total messages per iteration
void BM_ChurnedDissemination(benchmark::State& state) {
  const bool pipelined = state.range(0) != 0;
  const std::size_t nodes = 150;
  constexpr std::size_t kWaves = 2;
  constexpr std::size_t kChurn = 2;  // nodes leaving/rejoining per wave
  double total_recovery = 0.0;
  std::size_t recovered = 0;
  std::uint64_t missing = 0;
  std::uint64_t total_sends = 0;
  std::uint64_t epochs_pipelined = 0;
  std::uint64_t epochs_stw = 0;
  for (auto _ : state) {
    hermes_proto::HermesConfig cfg = scale_hermes_config();
    cfg.enable_self_healing = true;
    cfg.health_tick_ms = 500.0;
    if (pipelined) {
      cfg.enable_epoch_pipeline = true;
      // Churn is the pipeline's job: keep the view-change layer for real
      // degradation only.
      cfg.view_change_threshold = 100.0;
    } else {
      // Classic reaction: a wave's departures trip the health vote and the
      // epoch rebuilds from scratch while traffic waits on the old trees.
      cfg.view_change_threshold = static_cast<double>(kChurn);
      cfg.view_change_cooldown_ms = 1000.0;
    }
    auto protocol = std::make_unique<hermes_proto::HermesProtocol>(cfg);
    protocols::ExperimentContext ctx(bench::make_bench_topology(nodes, 42),
                                     sim::NetworkParams{}, 42 ^ 0x5eedULL);
    protocols::populate(ctx, *protocol);
    const auto shared = protocol->shared();

    // Victims: non-committee relays; the same set leaves and rejoins every
    // wave (the sustained-churn shape: flaky members, not fresh ones).
    std::vector<net::NodeId> victims;
    for (net::NodeId v = 0; v < nodes && victims.size() < kChurn; ++v) {
      if (shared->is_committee_member(v)) continue;
      for (const auto& ov : shared->overlays) {
        if (!ov.successors(v).empty()) {
          victims.push_back(v);
          break;
        }
      }
    }
    std::vector<net::NodeId> senders;
    for (net::NodeId v = 0; v < nodes && senders.size() < 8; ++v) {
      if (shared->is_committee_member(v) ||
          std::find(victims.begin(), victims.end(), v) != victims.end()) {
        continue;
      }
      senders.push_back(v);
    }
    std::size_t next_sender = 0;
    const auto pick_sender = [&] {
      const net::NodeId s = senders[next_sender];
      next_sender = (next_sender + 1) % senders.size();
      return s;
    };

    struct Measured {
      std::uint64_t tx_id;
      net::NodeId origin;
      double injected_at;
    };
    std::vector<Measured> measured;
    bool counting = false;
    const auto warm = [&](int steps) {
      for (int i = 0; i < steps; ++i) {
        const net::NodeId origin = pick_sender();
        const auto tx = protocols::inject_tx(ctx, origin);
        if (counting) {
          measured.push_back(Measured{tx.id, origin, ctx.engine.now()});
        }
        ctx.engine.run_until(ctx.engine.now() + 250.0);
      }
    };

    const auto t0 = std::chrono::steady_clock::now();
    warm(6);
    counting = true;
    for (std::size_t wave = 0; wave < kWaves; ++wave) {
      for (net::NodeId victim : victims) ctx.network.set_crashed(victim, true);
      warm(8);  // keepalive traffic: silence strikes need flowing data
      for (net::NodeId victim : victims) {
        ctx.network.set_crashed(victim, false);
        ctx.engine.schedule(0.0, [&ctx, victim] {
          if (auto* hn = dynamic_cast<hermes_proto::HermesNode*>(
                  &ctx.node(victim))) {
            hn->begin_join();
          }
        });
      }
      warm(8);
    }
    ctx.engine.run_until(ctx.engine.now() + 6000.0);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());

    for (const auto& [tx_id, origin, injected_at] : measured) {
      double last = injected_at;
      bool complete = true;
      for (net::NodeId v = 0; v < nodes; ++v) {
        if (v == origin || !ctx.is_honest(v) || ctx.network.is_crashed(v)) {
          continue;
        }
        if (!ctx.tracker.delivered(tx_id, v)) {
          complete = false;
          break;
        }
        last = std::max(last, ctx.tracker.delivery_time(tx_id, v));
      }
      if (complete) {
        total_recovery += last - injected_at;
        ++recovered;
      } else {
        ++missing;
      }
    }
    total_sends += ctx.network.total().messages_sent;
    epochs_pipelined += protocol->pipelined_advances();
    epochs_stw += protocol->stop_the_world_advances();
  }
  state.counters["recovery_ms"] = benchmark::Counter(
      recovered == 0 ? 0.0
                     : total_recovery / static_cast<double>(recovered));
  state.counters["epochs_pipelined"] = benchmark::Counter(
      static_cast<double>(epochs_pipelined) /
      static_cast<double>(state.iterations()));
  state.counters["epochs_stw"] = benchmark::Counter(
      static_cast<double>(epochs_stw) /
      static_cast<double>(state.iterations()));
  state.counters["missing"] =
      benchmark::Counter(static_cast<double>(missing));
  state.counters["sends"] = benchmark::Counter(
      static_cast<double>(total_sends) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ChurnedDissemination)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// Push-gossip at the same sizes: no overlay build, so this is the purest
// large-N event-engine stress (fanout 8 floods generate ~n * fanout sends
// per transaction).
void BM_GossipDissemination(benchmark::State& state) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  dissemination_bench(
      state, nodes,
      [] {
        return std::make_unique<protocols::GossipProtocol>(
            protocols::GossipParams{});
      },
      /*txs=*/10, /*gap_ms=*/100.0, /*drain_ms=*/2000.0);
}
BENCHMARK(BM_GossipDissemination)
    ->Arg(2000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

// Custom main, mirroring bench_overlay_build: --benchmark_* flags pass
// through; --nodes N registers the paper-scale dissemination runs (HERMES
// and gossip) at that N on top of the CI-friendly defaults. The HERMES run
// is registered as a workers sweep (1/2/4/8 engine worker threads over the
// region-sharded engine); --workers W restricts the sweep to that single
// value. The CI-default registrations above stay single-threaded so the
// committed baseline numbers remain comparable. --signer {sim,real} picks
// the TRS backend (default sim) and --rsa-bits N the real key size.
int main(int argc, char** argv) {
  std::vector<char*> filtered{argv[0]};
  std::size_t custom_nodes = 0;
  std::size_t custom_workers = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      filtered.push_back(argv[i]);
    } else if (std::strcmp(argv[i], "--signer") == 0 && i + 1 < argc) {
      ++i;
      if (std::strcmp(argv[i], "real") == 0) {
        g_real_signer = true;
      } else if (std::strcmp(argv[i], "sim") != 0) {
        std::fprintf(stderr, "error: --signer expects sim|real, got '%s'\n",
                     argv[i]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--rsa-bits") == 0 && i + 1 < argc) {
      char* end = nullptr;
      g_signer_rsa_bits = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || g_signer_rsa_bits < 128) {
        std::fprintf(stderr,
                     "error: --rsa-bits expects an integer >= 128, got '%s'\n",
                     argv[i]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      char* end = nullptr;
      custom_nodes = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || custom_nodes == 0) {
        std::fprintf(stderr,
                     "error: --nodes expects a positive integer, got '%s'\n",
                     argv[i]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      char* end = nullptr;
      custom_workers = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || custom_workers == 0) {
        std::fprintf(stderr,
                     "error: --workers expects a positive integer, got '%s'\n",
                     argv[i]);
        return 1;
      }
    }
  }
  if (custom_nodes > 0) {
    const std::vector<std::size_t> sweep =
        custom_workers > 0 ? std::vector<std::size_t>{custom_workers}
                           : std::vector<std::size_t>{1, 2, 4, 8};
    for (const std::size_t w : sweep) {
      benchmark::RegisterBenchmark(
          ("BM_HermesDissemination/" + std::to_string(custom_nodes) +
           "/workers:" + std::to_string(w))
              .c_str(),
          [custom_nodes, w](benchmark::State& state) {
            dissemination_bench(
                state, custom_nodes,
                [] {
                  return std::make_unique<hermes_proto::HermesProtocol>(
                      scale_hermes_config());
                },
                /*txs=*/5, /*gap_ms=*/100.0, /*drain_ms=*/2000.0,
                /*workers=*/w);
          })
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
    benchmark::RegisterBenchmark(
        ("BM_GossipDissemination/" + std::to_string(custom_nodes)).c_str(),
        [custom_nodes, custom_workers](benchmark::State& state) {
          dissemination_bench(
              state, custom_nodes,
              [] {
                return std::make_unique<protocols::GossipProtocol>(
                    protocols::GossipParams{});
              },
              /*txs=*/5, /*gap_ms=*/100.0, /*drain_ms=*/2000.0,
              /*workers=*/custom_workers > 0 ? custom_workers : 1);
        })
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
