#include "sim/network.hpp"

#include <gtest/gtest.h>

namespace hermes::sim {
namespace {

net::Topology small_topology(std::size_t n = 8) {
  net::TopologyParams params;
  params.node_count = n;
  params.min_degree = 3;
  params.connectivity = 2;
  Rng rng(1234);
  return net::make_topology(params, rng);
}

struct PingBody final : Body<PingBody> {
  int value = 0;
};

class EchoNode final : public Node {
 public:
  using Node::Node;
  void on_message(const Message& msg) override {
    received.push_back(msg);
    received_at.push_back(now());
  }
  std::vector<Message> received;
  std::vector<SimTime> received_at;
};

struct NetworkFixture {
  NetworkFixture() : topo(small_topology()), net_(engine, topo, NetworkParams{}, Rng(5)) {
    for (net::NodeId v = 0; v < topo.graph.node_count(); ++v) {
      nodes.push_back(std::make_unique<EchoNode>(net_, v));
    }
  }
  Engine engine;
  net::Topology topo;
  Network net_;
  std::vector<std::unique_ptr<EchoNode>> nodes;
};

Message make_msg(net::NodeId src, net::NodeId dst, int value = 7) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.type = 1;
  m.wire_bytes = 100;
  auto body = std::make_shared<PingBody>();
  body->value = value;
  m.body = body;
  return m;
}

TEST(Network, DeliversWithPairLatency) {
  NetworkFixture fx;
  const double lat = fx.net_.pair_latency(0, 1);
  const std::optional<SimTime> at = fx.net_.send(make_msg(0, 1));
  ASSERT_TRUE(at.has_value());
  EXPECT_GT(*at, 0.0);
  fx.engine.run();
  ASSERT_EQ(fx.nodes[1]->received.size(), 1u);
  // Link latency + processing delay + a few microseconds of serialization.
  EXPECT_NEAR(fx.nodes[1]->received_at[0], lat + 0.05, 0.05);
  EXPECT_EQ(fx.nodes[1]->received[0].as<PingBody>().value, 7);
}

TEST(Network, PairLatencyStableAcrossCalls) {
  NetworkFixture fx;
  // Non-adjacent pairs get a cached sample; repeated queries must agree.
  const double a = fx.net_.pair_latency(0, 7);
  EXPECT_DOUBLE_EQ(a, fx.net_.pair_latency(0, 7));
  EXPECT_DOUBLE_EQ(a, fx.net_.pair_latency(7, 0));
}

TEST(Network, BandwidthAccounting) {
  NetworkFixture fx;
  fx.net_.send(make_msg(0, 1));
  fx.net_.send(make_msg(0, 2));
  fx.engine.run();
  EXPECT_EQ(fx.net_.counters(0).messages_sent, 2u);
  EXPECT_EQ(fx.net_.counters(0).bytes_sent, 200u);
  EXPECT_EQ(fx.net_.counters(1).messages_received, 1u);
  EXPECT_EQ(fx.net_.total().messages_sent, 2u);
  EXPECT_EQ(fx.net_.total().bytes_received, 200u);
}

TEST(Network, CrashedReceiverGetsNothing) {
  NetworkFixture fx;
  fx.net_.set_crashed(1, true);
  EXPECT_FALSE(fx.net_.send(make_msg(0, 1)).has_value());
  fx.engine.run();
  EXPECT_TRUE(fx.nodes[1]->received.empty());
  EXPECT_EQ(fx.net_.dropped_messages(), 1u);
}

TEST(Network, CrashedSenderSendsNothing) {
  NetworkFixture fx;
  fx.net_.set_crashed(0, true);
  fx.net_.send(make_msg(0, 1));
  fx.engine.run();
  EXPECT_TRUE(fx.nodes[1]->received.empty());
}

TEST(Network, CrashMidFlightSuppressesDelivery) {
  NetworkFixture fx;
  fx.net_.send(make_msg(0, 1));
  fx.net_.set_crashed(1, true);  // crash after send, before delivery
  fx.engine.run();
  EXPECT_TRUE(fx.nodes[1]->received.empty());
}

TEST(Network, RecoveredNodeReceivesAgain) {
  NetworkFixture fx;
  fx.net_.set_crashed(1, true);
  EXPECT_FALSE(fx.net_.send(make_msg(0, 1)).has_value());
  fx.engine.run();
  ASSERT_TRUE(fx.nodes[1]->received.empty());
  // Recovery is forward-only: the message dropped while down stays lost,
  // but traffic sent after set_crashed(id, false) flows normally.
  fx.net_.set_crashed(1, false);
  EXPECT_TRUE(fx.net_.send(make_msg(0, 1)).has_value());
  fx.net_.send(make_msg(1, 2));  // recovered node can send too
  fx.engine.run();
  EXPECT_EQ(fx.nodes[1]->received.size(), 1u);
  EXPECT_EQ(fx.nodes[2]->received.size(), 1u);
  EXPECT_EQ(fx.net_.dropped_messages(), 1u);
}

TEST(Network, LinkFlapDropsOnlyDuringWindow) {
  NetworkFixture fx;
  fx.net_.add_link_flap(0, 1, 10.0, 20.0);
  EXPECT_FALSE(fx.net_.link_down(0, 1, 5.0));
  EXPECT_TRUE(fx.net_.link_down(0, 1, 10.0));
  EXPECT_TRUE(fx.net_.link_down(1, 0, 15.0));  // undirected
  EXPECT_FALSE(fx.net_.link_down(0, 1, 20.0));  // half-open window
  EXPECT_FALSE(fx.net_.link_down(0, 2, 15.0));  // other links unaffected

  // A send attempted inside the window is silently charged as a drop.
  fx.net_.add_link_flap(0, 1, 0.0, 1.0);
  EXPECT_FALSE(fx.net_.send(make_msg(0, 1)).has_value());
  EXPECT_EQ(fx.net_.dropped_messages(), 1u);
  // Other destinations still flow while (0, 1) is down.
  EXPECT_TRUE(fx.net_.send(make_msg(0, 2)).has_value());
  fx.engine.run();
  EXPECT_TRUE(fx.nodes[1]->received.empty());
  EXPECT_EQ(fx.nodes[2]->received.size(), 1u);
}

TEST(Network, LinkFlapWindowsCompose) {
  NetworkFixture fx;
  fx.net_.add_link_flap(2, 3, 10.0, 20.0);
  fx.net_.add_link_flap(2, 3, 40.0, 50.0);
  EXPECT_TRUE(fx.net_.link_down(2, 3, 15.0));
  EXPECT_FALSE(fx.net_.link_down(2, 3, 30.0));
  EXPECT_TRUE(fx.net_.link_down(3, 2, 45.0));
}

TEST(Network, ProcessingMultiplierDelaysReceiver) {
  NetworkFixture plain;
  NetworkFixture slow;
  slow.net_.set_processing_multiplier(1, 10.0);
  EXPECT_DOUBLE_EQ(slow.net_.processing_multiplier(1), 10.0);
  EXPECT_DOUBLE_EQ(slow.net_.processing_multiplier(2), 1.0);
  plain.net_.send(make_msg(0, 1));
  slow.net_.send(make_msg(0, 1));
  plain.engine.run();
  slow.engine.run();
  ASSERT_EQ(plain.nodes[1]->received.size(), 1u);
  ASSERT_EQ(slow.nodes[1]->received.size(), 1u);
  // The straggler's delivery lags by exactly the extra processing time.
  const double extra = 9.0 * kProcessingDelayMs;
  EXPECT_NEAR(slow.nodes[1]->received_at[0],
              plain.nodes[1]->received_at[0] + extra, 1e-9);
  // Receivers other than the straggler keep the baseline latency. The two
  // engines' clocks have drifted apart by `extra`, so compare transit
  // times, not absolute timestamps.
  const double plain_now = plain.engine.now();
  const double slow_now = slow.engine.now();
  plain.net_.send(make_msg(0, 2));
  slow.net_.send(make_msg(0, 2));
  plain.engine.run();
  slow.engine.run();
  ASSERT_EQ(slow.nodes[2]->received.size(), 1u);
  EXPECT_DOUBLE_EQ(slow.nodes[2]->received_at[0] - slow_now,
                   plain.nodes[2]->received_at[0] - plain_now);
}

TEST(Network, DropProbabilityOneDropsAll) {
  Engine engine;
  const net::Topology topo = small_topology();
  NetworkParams params;
  params.drop_probability = 1.0;
  Network network(engine, topo, params, Rng(6));
  EchoNode a(network, 0), b(network, 1);
  std::vector<std::unique_ptr<EchoNode>> rest;
  for (net::NodeId v = 2; v < topo.graph.node_count(); ++v) {
    rest.push_back(std::make_unique<EchoNode>(network, v));
  }
  network.send(make_msg(0, 1));
  engine.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(network.dropped_messages(), 1u);
  // Send is still charged to the sender (the bytes left the NIC).
  EXPECT_EQ(network.counters(0).messages_sent, 1u);
}

TEST(Network, DropProbabilityStatistical) {
  Engine engine;
  const net::Topology topo = small_topology();
  NetworkParams params;
  params.drop_probability = 0.3;
  Network network(engine, topo, params, Rng(7));
  std::vector<std::unique_ptr<EchoNode>> nodes;
  for (net::NodeId v = 0; v < topo.graph.node_count(); ++v) {
    nodes.push_back(std::make_unique<EchoNode>(network, v));
  }
  const int total = 2000;
  for (int i = 0; i < total; ++i) network.send(make_msg(0, 1));
  engine.run();
  const double delivered =
      static_cast<double>(nodes[1]->received.size()) / total;
  EXPECT_NEAR(delivered, 0.7, 0.04);
}

}  // namespace
}  // namespace hermes::sim
