#include "fuzz/runner.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "crypto/sha256.hpp"
#include "fuzz/world.hpp"
#include "hermes/hermes_node.hpp"
#include "protocols/gossip.hpp"
#include "support/bytes.hpp"
#include "workload/driver.hpp"

namespace hermes::fuzz {

using hermes_proto::HermesConfig;
using hermes_proto::HermesNode;
using hermes_proto::HermesProtocol;
using protocols::Transaction;

namespace {

HermesConfig hermes_config(const Scenario& s) {
  HermesConfig cfg;
  cfg.f = s.f;
  cfg.k = s.k;
  cfg.committee = s.committee;
  cfg.fallback_delay_ms = s.fallback_delay_ms;
  cfg.enable_fallback = s.enable_fallback;
  cfg.enable_acks = s.enable_acks;
  cfg.adversary_blind_blast = s.blind_blast;
  cfg.direct_entry_injection = s.direct_injection;
  cfg.enable_self_healing = s.self_healing;
  cfg.enable_epoch_pipeline = s.epoch_pipeline;
  cfg.builder.f = s.f;
  cfg.builder.k = s.k;
  // Short annealing schedule: enough to exercise the optimizer, cheap
  // enough for thousands of runs per batch.
  cfg.builder.annealing.initial_temperature = 5.0;
  cfg.builder.annealing.min_temperature = 1.0;
  cfg.builder.annealing.cooling_rate = 0.8;
  cfg.builder.annealing.moves_per_temperature = 4;
  return cfg;
}

}  // namespace

RunResult run_scenario(const Scenario& s, const RunOptions& opts) {
  net::TopologyParams tp;
  tp.node_count = s.nodes;
  tp.min_degree = s.min_degree;
  tp.connectivity = s.connectivity;
  tp.locality_bias = s.locality_bias;

  sim::NetworkParams np;
  np.drop_probability = s.drop_probability;
  np.jitter_stddev_ms = s.jitter_stddev_ms;
  np.workers = opts.workers;

  std::unique_ptr<protocols::Protocol> protocol;
  HermesProtocol* hermes = nullptr;
  if (s.hermes()) {
    auto p = std::make_unique<HermesProtocol>(hermes_config(s));
    hermes = p.get();
    protocol = std::move(p);
  } else {
    protocols::GossipParams gp;
    // Fanout at least the degree cap of fuzzed topologies: benign gossip
    // runs flood, making exact-coverage a sound oracle.
    gp.fanout = 16;
    protocol = std::make_unique<protocols::GossipProtocol>(gp);
  }

  World w(tp, *protocol, s.seed, np);
  for (const ByzAssignment& b : s.byzantine) {
    if (b.node < w.ctx->behaviors.size()) {
      w.ctx->behaviors[b.node] = b.behavior;
    }
  }
  w.ctx->attack_enabled = s.has_front_runner();
  // enable_transit_faults resets the send tap, so it must precede ours.
  if (s.transit_faults) protocols::enable_transit_faults(*w.ctx);

  for (const LinkFlap& flap : s.link_flaps) {
    if (flap.a >= s.nodes || flap.b >= s.nodes || flap.a == flap.b ||
        flap.start_ms >= flap.end_ms) {
      continue;
    }
    w.ctx->network.add_link_flap(flap.a, flap.b, flap.start_ms, flap.end_ms);
  }
  for (const Straggler& st : s.stragglers) {
    if (st.node >= s.nodes || st.multiplier <= 0.0) continue;
    w.ctx->network.set_processing_multiplier(st.node, st.multiplier);
  }

  // Mempool capacity is fixed at node construction, so it must precede
  // start() (which runs populate()).
  w.ctx->mempool_capacity = s.mempool_capacity;
  w.start();

  InvariantSuite suite(s, *w.ctx);
  if (hermes != nullptr) {
    suite.add_generation(hermes->shared());
    // The initial generation is installed inside start(); timestamp it at
    // t=0 and observe every later install (manual view changes, health
    // votes, pipelined handoffs) for the transition-safety checker.
    suite.note_install(hermes->shared()->epoch, 0.0);
    hermes->set_install_observer(
        [&suite](std::shared_ptr<const hermes_proto::HermesShared> shared,
                 double now_ms) {
          suite.note_install(shared->epoch, now_ms);
          suite.add_generation(shared);
        });
  }

  crypto::Sha256 hasher;
  std::size_t sends = 0;
  w.ctx->network.set_send_tap(
      [&suite, &hasher, &sends](const sim::Message& msg, sim::SimTime now) {
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
        suite.on_send(now, msg);
      });

  // --- schedule: injections
  std::uint64_t member_seq = 0x800000;  // batch members' id namespace
  for (const Injection& inj : s.injections) {
    w.at(inj.at_ms, [&suite, &member_seq, inj](World& world) {
      if (inj.sender >= world.ctx->node_count()) return;
      if (inj.batch_size == 0) {
        const Transaction tx = world.send_from(inj.sender);
        suite.note_injected(tx.id, false);
        return;
      }
      std::vector<Transaction> txs;
      for (std::uint32_t i = 0; i < inj.batch_size; ++i) {
        Transaction tx;
        tx.sender = inj.sender;
        tx.sender_seq = ++member_seq;
        tx.id = Transaction::make_id(inj.sender, tx.sender_seq);
        tx.created_at = world.ctx->engine.now();
        world.ctx->tracker.on_created(tx.id, tx.created_at);
        suite.note_injected(tx.id, true);
        txs.push_back(tx);
      }
      // Batch injection bypasses inject_tx, so it scopes the sender's
      // shard itself: dissemination timers belong to the sender's lane.
      sim::Engine::ShardScope scope(world.ctx->engine,
                                    world.ctx->shard_of(inj.sender));
      auto* hn = dynamic_cast<HermesNode*>(&world.ctx->node(inj.sender));
      if (hn != nullptr) {
        hn->submit_batch(std::move(txs));
      } else {
        for (const Transaction& tx : txs) world.ctx->node(inj.sender).submit(tx);
      }
    });
  }

  // --- schedule: sustained load (extended scenarios). The arrival process
  // is re-derived from the scenario fields, so a replayed scenario streams
  // the byte-identical schedule.
  double load_end_ms = 0.0;
  if (s.has_load()) {
    std::vector<net::NodeId> honest_senders;
    for (net::NodeId v = 0; v < w.ctx->node_count(); ++v) {
      if (w.ctx->is_honest(v)) honest_senders.push_back(v);
    }
    workload::WorkloadParams wp;
    wp.kind = workload::ArrivalKind::kPoisson;
    wp.duration_ms = s.load_duration_ms;
    wp.rate_hz = s.load_rate_hz;
    wp.seed = s.load_seed;
    std::vector<workload::Arrival> arrivals =
        workload::generate_arrivals(wp, honest_senders);
    for (workload::Arrival& a : arrivals) a.at_ms += s.load_start_ms;
    const workload::ScheduleResult sched =
        workload::schedule_arrivals(*w.ctx, arrivals);
    for (const Transaction& tx : sched.txs) {
      suite.note_injected(tx.id, /*batch_member=*/false);
      suite.note_load(tx.id);
    }
    load_end_ms = sched.horizon_ms;
  }

  // --- schedule: churn (crash/recover + optional view change or rejoin)
  for (const ChurnEvent& ev : s.churn) {
    w.at(ev.at_ms, [&suite, hermes, ev](World& world) {
      for (net::NodeId v : ev.nodes) {
        if (v < world.ctx->node_count()) {
          world.ctx->network.set_crashed(v, !ev.recover);
        }
      }
      if (ev.rejoin && ev.recover && hermes != nullptr) {
        // A rejoining node announces itself through the admission protocol
        // instead of silently resuming: signed join request, f+1 witnesses,
        // state catch-up. Its timers and sends belong to its own lane.
        for (net::NodeId v : ev.nodes) {
          if (v >= world.ctx->node_count()) continue;
          sim::Engine::ShardScope scope(world.ctx->engine,
                                        world.ctx->shard_of(v));
          auto* hn = dynamic_cast<HermesNode*>(&world.ctx->node(v));
          if (hn != nullptr) hn->begin_join();
        }
      }
      if (ev.advance_epoch && hermes != nullptr) {
        hermes->advance_epoch(*world.ctx, ev.epoch_seed);
        suite.add_generation(hermes->shared());
      }
    });
  }

  // --- schedule: partition windows
  for (const PartitionWindow& pw : s.partitions) {
    w.at(pw.start_ms, [pw](World& world) {
      const std::size_t n = world.ctx->node_count();
      std::vector<int> side(n, 0);
      Rng prng(pw.assign_seed);
      bool mixed = false;
      for (std::size_t v = 0; v < n; ++v) {
        side[v] = prng.bernoulli(0.5) ? 1 : 0;
        if (v > 0 && side[v] != side[0]) mixed = true;
      }
      if (!mixed && n > 1) side[0] ^= 1;
      world.ctx->network.set_partition(side);
    });
    w.at(pw.end_ms, [](World& world) { world.ctx->network.heal_partition(); });
  }

  double horizon = load_end_ms;
  for (const Injection& inj : s.injections) horizon = std::max(horizon, inj.at_ms);
  for (const ChurnEvent& ev : s.churn) horizon = std::max(horizon, ev.at_ms);
  for (const PartitionWindow& pw : s.partitions) {
    horizon = std::max(horizon, pw.end_ms);
  }
  for (const LinkFlap& flap : s.link_flaps) {
    horizon = std::max(horizon, flap.end_ms);
  }
  horizon += s.drain_ms;
  w.run_ms(horizon);

  if (hermes != nullptr) {
    // Health-triggered view changes and pipelined handoffs install new
    // generations mid-run; the suite needs them for certificate/coverage
    // decisions, plus the advance count so epoch accounting stays
    // consistent (a pipelined install supersedes old certificates exactly
    // like a stop-the-world one).
    suite.set_auto_epoch_advances(hermes->auto_advances() +
                                  hermes->pipelined_advances());
    suite.add_generation(hermes->shared());
  }

  suite.apply_mutation(opts.mutation);

  RunResult result;
  result.failures = suite.finish();
  result.trace_hash = hex_encode(crypto::digest_to_bytes(hasher.finish()));
  result.sends = sends;
  result.sim_end_ms = horizon;
  if (hermes != nullptr) {
    result.pipelined_installs = hermes->pipelined_advances();
    result.stop_the_world_advances = hermes->stop_the_world_advances();
    result.pipeline_invalidations = hermes->pipeline_invalidations();
    result.deltas_absorbed = hermes->deltas_absorbed_incrementally();
  }
  return result;
}

}  // namespace hermes::fuzz
