// Permissionless churn (Section VII) on the protocol's own epoch path:
// self-healing, join admission and the background epoch pipeline. Each
// wave crashes f relays under keepalive traffic until their peers convict
// them as departed, then recovers them and lets them rejoin through signed
// join requests; the pipeline absorbs every wave with a warm-started
// background re-anneal while the old trees keep serving.
//
//   ./build/examples/permissionless_churn [nodes] [waves]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "hermes/hermes_node.hpp"

int main(int argc, char** argv) {
  using namespace hermes;
  using namespace hermes::protocols;
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 80;
  const int waves = argc > 2 ? std::atoi(argv[2]) : 3;

  hermes_proto::HermesConfig config;
  config.f = 1;
  config.k = 4;
  config.builder.annealing.initial_temperature = 5.0;
  config.builder.annealing.min_temperature = 1.0;
  config.builder.annealing.cooling_rate = 0.8;
  config.builder.annealing.moves_per_temperature = 4;
  config.enable_self_healing = true;
  config.enable_epoch_pipeline = true;
  // Churn is the pipeline's job: the view-change vote stays for real
  // degradation only.
  config.view_change_threshold = 100.0;

  net::TopologyParams topo_params;
  topo_params.node_count = n;
  topo_params.min_degree = 5;
  Rng topo_rng(11);
  ExperimentContext ctx(net::make_topology(topo_params, topo_rng),
                        sim::NetworkParams{}, /*seed=*/11);
  hermes_proto::HermesProtocol protocol(config);
  populate(ctx, protocol);
  const auto shared = protocol.shared();

  // Victims: f relays outside the committee (f per wave, the system
  // model's bound), the same ones every wave: flaky members, not fresh
  // ones. Senders: eight other nodes outside the committee.
  std::vector<net::NodeId> victims;
  std::vector<net::NodeId> senders;
  for (net::NodeId v = 0; v < n; ++v) {
    if (shared->is_committee_member(v)) continue;
    const bool relay = std::any_of(
        shared->overlays.begin(), shared->overlays.end(),
        [v](const overlay::Overlay& ov) { return !ov.successors(v).empty(); });
    if (relay && victims.size() < config.f) {
      victims.push_back(v);
    } else if (senders.size() < 8) {
      senders.push_back(v);
    }
  }
  std::size_t next_sender = 0;
  std::vector<Transaction> sent;
  // Keepalive traffic: silence strikes need flowing data.
  const auto keepalive = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      sent.push_back(inject_tx(ctx, senders[next_sender]));
      next_sender = (next_sender + 1) % senders.size();
      ctx.engine.run_until(ctx.engine.now() + 250.0);
    }
  };
  const auto& observer =
      dynamic_cast<const hermes_proto::HermesNode&>(ctx.node(senders[0]));

  std::printf("permissionless churn over %zu nodes, f=%zu, k=%zu, %d waves\n",
              n, config.f, config.k, waves);
  keepalive(4);
  for (int wave = 1; wave <= waves; ++wave) {
    const std::size_t first_tx = sent.size();
    for (net::NodeId v : victims) ctx.network.set_crashed(v, true);
    keepalive(8);
    std::printf("wave %d: crashed {", wave);
    for (net::NodeId v : victims) std::printf(" %u", v);
    std::printf(" }, removed at node %u {", observer.id());
    for (net::NodeId v : observer.removed_nodes()) std::printf(" %u", v);
    std::printf(" }");
    for (net::NodeId v : victims) {
      ctx.network.set_crashed(v, false);
      sim::Engine::ShardScope scope(ctx.engine, ctx.shard_of(v));
      dynamic_cast<hermes_proto::HermesNode&>(ctx.node(v)).begin_join();
    }
    keepalive(8);
    ctx.engine.run_until(ctx.engine.now() + 2000.0);
    double coverage = 0.0;
    for (std::size_t i = first_tx; i < sent.size(); ++i) {
      coverage += honest_coverage(ctx, sent[i]);
    }
    coverage /= static_cast<double>(sent.size() - first_tx);
    std::printf(" -> epoch %llu | installs: %llu pipelined, %llu "
                "stop-the-world | coverage %.2f\n",
                static_cast<unsigned long long>(protocol.shared()->epoch),
                static_cast<unsigned long long>(protocol.pipelined_advances()),
                static_cast<unsigned long long>(
                    protocol.stop_the_world_advances()),
                coverage);
  }
  return 0;
}
