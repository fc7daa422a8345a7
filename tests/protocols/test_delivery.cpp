// DeliveryTracker: creation times per transaction, first deliveries read
// from the nodes' mempools.
#include "protocols/delivery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "hermes/hermes_node.hpp"
#include "harness.hpp"

namespace hermes::protocols {
namespace {

using testing::World;

// A node that delivers exactly what the test hands it.
class HandFedNode final : public ProtocolNode {
 public:
  using ProtocolNode::ProtocolNode;
  using ProtocolNode::deliver_tx;
  void submit(const Transaction& tx) override { deliver_own(tx); }
  void on_message(const sim::Message&) override {}
};

class HandFedProtocol final : public Protocol {
 public:
  std::string_view name() const override { return "hand-fed"; }
  std::unique_ptr<ProtocolNode> make_node(ExperimentContext& ctx,
                                          net::NodeId id) override {
    return std::make_unique<HandFedNode>(ctx, id);
  }
};

net::TopologyParams four_nodes() {
  net::TopologyParams params;
  params.node_count = 4;
  params.min_degree = 3;
  params.connectivity = 2;
  return params;
}

sim::NetworkParams with_workers(std::size_t workers) {
  sim::NetworkParams params;
  params.workers = workers;
  return params;
}

// Four hand-fed nodes; deliver() advances the clock to `when` first, so
// the mempool stamps the delivery at exactly that time.
struct FourNodes {
  explicit FourNodes(std::size_t workers)
      : world(four_nodes(), protocol, 4242, with_workers(workers)) {
    world.start();
  }

  bool deliver(sim::SimTime when, net::NodeId v, std::uint64_t item) {
    world.ctx->engine.run_until(when);
    Transaction tx;
    tx.id = item;
    const auto body = make_tx_body(tx);
    return static_cast<HandFedNode&>(world.ctx->node(v))
        .deliver_tx(body, body->tx);
  }
  DeliveryTracker& tracker() { return world.ctx->tracker; }

  HandFedProtocol protocol;
  World world;
};

TEST(DeliveryTracker, CoverageAndLatencies) {
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    FourNodes w(workers);
    w.tracker().on_created(1, 10.0);
    EXPECT_TRUE(w.deliver(15.0, 1, 1));
    EXPECT_FALSE(w.deliver(17.0, 1, 1));  // duplicate ignored
    EXPECT_TRUE(w.deliver(20.0, 2, 1));
    EXPECT_TRUE(w.tracker().delivered(1, 1));
    EXPECT_FALSE(w.tracker().delivered(1, 3));
    EXPECT_DOUBLE_EQ(w.tracker().delivery_time(1, 1), 15.0);
    EXPECT_EQ(w.tracker().latencies(1), (std::vector<double>{5.0, 10.0}));
  }
}

TEST(DeliveryTracker, UnknownItemIgnored) {
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    FourNodes w(workers);
    EXPECT_TRUE(w.deliver(5.0, 1, 99));
    EXPECT_FALSE(w.tracker().delivered(99, 1));
    EXPECT_DOUBLE_EQ(w.tracker().delivery_time(99, 1), -1.0);
    EXPECT_TRUE(w.tracker().latencies(99).empty());
  }
}

TEST(DeliveryTracker, RestampLiftsTheOriginsEarlierDelivery) {
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    FourNodes w(workers);
    w.tracker().on_created(7, 0.0);
    EXPECT_TRUE(w.deliver(5.0, 0, 7));  // the origin, before propagation
    w.tracker().restamp_created(7, 30.0);
    w.tracker().restamp_created(7, 20.0);  // never moves creation back
    EXPECT_TRUE(w.deliver(40.0, 2, 7));
    EXPECT_DOUBLE_EQ(w.tracker().delivery_time(7, 0), 30.0);
    EXPECT_DOUBLE_EQ(w.tracker().delivery_time(7, 2), 40.0);
    EXPECT_EQ(w.tracker().latencies(7), (std::vector<double>{0.0, 10.0}));
  }
}

hermes_proto::HermesConfig fast_config() {
  hermes_proto::HermesConfig config;
  config.f = 1;
  config.k = 4;
  config.builder.annealing.initial_temperature = 5.0;
  config.builder.annealing.min_temperature = 1.0;
  config.builder.annealing.cooling_rate = 0.8;
  config.builder.annealing.moves_per_temperature = 4;
  return config;
}

using Delivery = std::tuple<std::uint64_t, net::NodeId, sim::SimTime>;

// The mempools' (tx, node, arrival) records at 4 workers match the stream
// observed at 1 worker, entry for entry, and every reader answers
// max(arrival, creation) from them. Singles, a batch and front-run attacks
// cover restamps from draining lanes and deliveries from deferred
// closures.
TEST(DeliveryTracker, MempoolsMatchTheObservedStreamAtWorkers1And4) {
  std::vector<Delivery> first_recorded;
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    hermes_proto::HermesProtocol protocol(fast_config());
    World w(40, protocol, 4242, with_workers(workers));
    ExperimentContext& ctx = *w.ctx;
    ctx.assign_behaviors(0.1, Behavior::kFrontRunner);
    ctx.attack_enabled = true;
    w.start();

    // HERMES restamps a transaction's creation when its origin starts the
    // propagation: the origin's first data send of it, or its first shard
    // of the one batch below.
    std::map<std::uint64_t, sim::SimTime> first_data;
    sim::SimTime first_chunk = -1.0;
    ctx.network.set_send_tap([&first_data, &first_chunk](
                                 const sim::Message& m, sim::SimTime now) {
      if (const auto* d = m.try_as<hermes_proto::DataBody>()) {
        if (m.src == d->tx.sender) first_data.try_emplace(d->tx.id, now);
      } else if (const auto* c = m.try_as<hermes_proto::BatchChunkBody>()) {
        if (m.src == c->trs.origin && first_chunk < 0.0) first_chunk = now;
      }
    });
    std::vector<Transaction> created;
    for (const net::NodeId sender : {3u, 11u, 26u, 34u}) {
      w.at(40.0 * sender, [&created, sender](World& world) {
        created.push_back(world.send_from(sender));
      });
    }
    w.at(500.0, [&created](World& world) {
      ExperimentContext& c = *world.ctx;
      std::vector<Transaction> batch;
      for (std::uint64_t seq = 0x800001; seq <= 0x800004; ++seq) {
        Transaction tx;
        tx.sender = 17;
        tx.sender_seq = seq;
        tx.id = Transaction::make_id(17, seq);
        tx.created_at = c.engine.now();
        c.tracker.on_created(tx.id, tx.created_at);
        batch.push_back(tx);
        created.push_back(tx);
      }
      sim::Engine::ShardScope scope(c.engine, c.shard_of(17));
      dynamic_cast<hermes_proto::HermesNode&>(c.node(17))
          .submit_batch(std::move(batch));
    });
    w.run_ms(8000);
    const std::size_t victims = created.size();
    for (std::size_t i = 0; i < victims; ++i) {
      const auto attack = ctx.adversarial_of.find(created[i].id);
      if (attack != ctx.adversarial_of.end()) created.push_back(attack->second);
    }

    std::vector<Delivery> recorded;
    for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
      const mempool::Mempool& pool = ctx.node(v).pool();
      for (const mempool::Mempool::Entry& entry : pool.arrival_log()) {
        recorded.emplace_back(entry.id(), v, entry.arrived());
      }
    }
    ASSERT_FALSE(recorded.empty());
    if (first_recorded.empty()) first_recorded = recorded;
    EXPECT_EQ(recorded, first_recorded) << "arrival records depend on workers";

    std::size_t restamped = 0;
    for (const Transaction& tx : created) {
      const auto sent = first_data.find(tx.id);
      const sim::SimTime creation = tx.sender_seq >= 0x800001 ? first_chunk
                                    : sent != first_data.end()
                                        ? sent->second
                                        : tx.created_at;
      ASSERT_GE(creation, tx.created_at) << tx.id;
      if (creation > ctx.node(tx.sender).pool().arrival_time(tx.id)) {
        ++restamped;
      }
      std::vector<double> latencies;
      for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
        const sim::SimTime at = ctx.node(v).pool().arrival_time(tx.id);
        const sim::SimTime expected =
            at < 0.0 ? -1.0 : std::max(at, creation);
        EXPECT_EQ(ctx.tracker.delivery_time(tx.id, v), expected)
            << tx.id << " at node " << v;
        EXPECT_EQ(ctx.tracker.delivered(tx.id, v), at >= 0.0);
        if (at >= 0.0) latencies.push_back(expected - creation);
      }
      EXPECT_EQ(ctx.tracker.latencies(tx.id), latencies) << tx.id;
    }
    EXPECT_GE(created.size(), 8u);
    EXPECT_GT(restamped, 0u);
  }
}

}  // namespace
}  // namespace hermes::protocols
