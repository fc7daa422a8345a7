#include "protocols/mercury.hpp"

#include "protocols/l0.hpp"

#include <gtest/gtest.h>

#include "harness.hpp"
#include "support/stats.hpp"

namespace hermes::protocols {
namespace {

using testing::World;

net::Topology test_topology(std::size_t n = 48) {
  net::TopologyParams tp;
  tp.node_count = n;
  tp.min_degree = 5;
  Rng rng(77);
  return net::make_topology(tp, rng);
}

TEST(MercuryDirectory, RespectsDegreeBounds) {
  const net::Topology topo = test_topology(64);
  Rng rng(1);
  const MercuryDirectory dir = build_mercury_directory(topo, rng);
  for (net::NodeId v = 0; v < 64; ++v) {
    EXPECT_LE(dir.intra_peers[v].size(), kMercuryIntraDegree);
    EXPECT_LE(dir.intra_peers[v].size() + dir.gateways[v].size(),
              kMercuryMaxDegree);
  }
}

TEST(MercuryDirectory, IntraPeersShareCluster) {
  const net::Topology topo = test_topology(64);
  Rng rng(2);
  const MercuryDirectory dir = build_mercury_directory(topo, rng);
  for (net::NodeId v = 0; v < 64; ++v) {
    for (net::NodeId p : dir.intra_peers[v]) {
      EXPECT_EQ(dir.cluster_of[v], dir.cluster_of[p]);
      EXPECT_NE(p, v);
    }
  }
}

TEST(MercuryDirectory, GatewaysCoverDistinctForeignClusters) {
  const net::Topology topo = test_topology(64);
  Rng rng(3);
  const MercuryDirectory dir = build_mercury_directory(topo, rng);
  for (net::NodeId v = 0; v < 64; ++v) {
    std::set<std::size_t> clusters;
    for (net::NodeId g : dir.gateways[v]) {
      EXPECT_NE(dir.cluster_of[g], dir.cluster_of[v]);
      EXPECT_TRUE(clusters.insert(dir.cluster_of[g]).second)
          << "duplicate gateway cluster";
    }
  }
}

TEST(Mercury, ReachesAllHonestNodes) {
  MercuryProtocol protocol;
  World w(48, protocol);
  w.start();
  const Transaction tx = w.send_from(5);
  w.run_ms(3000);
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 1.0);
}

TEST(Mercury, LowLatencyTwoHopStructure) {
  MercuryProtocol protocol;
  World w(48, protocol);
  w.start();
  const Transaction tx = w.send_from(0);
  w.run_ms(3000);
  const auto lats = w.ctx->tracker.latencies(tx.id);
  ASSERT_FALSE(lats.empty());
  // Gateway + intra hop: p95 within a few link latencies.
  EXPECT_LT(percentile_of(lats, 95.0), 400.0);
}

TEST(Mercury, ByzantineGatewaysCanStarveClusters) {
  // With many droppers the per-sender gateway chokepoints cut off whole
  // clusters — Mercury's robustness weakness (Figure 5b).
  MercuryProtocol protocol;
  World w(64, protocol, 13);
  w.ctx->assign_behaviors(0.33, Behavior::kDropper);
  w.start();
  double worst = 1.0;
  for (int i = 0; i < 5; ++i) {
    const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
    const Transaction tx = inject_tx(*w.ctx, sender);
    w.run_ms(2500);
    worst = std::min(worst, honest_coverage(*w.ctx, tx));
  }
  EXPECT_LT(worst, 0.999);  // at least one run leaves honest nodes dark
}

TEST(Mercury, FasterThanL0OnAverage) {
  // Figure 3a ordering at test scale: Mercury's clustered two-hop
  // structure beats LØ's low-fanout gossip + reconciliation. (Beating
  // fanout-8 gossip requires network sizes where gossip needs more hops
  // than the cluster structure — covered by the Fig. 3a bench at scale.)
  MercuryProtocol mercury;
  L0Protocol l0;
  World wm(48, mercury, 5), wl(48, l0, 5);
  wm.start();
  wl.start();
  const Transaction tm = wm.send_from(0);
  const Transaction tl = wl.send_from(0);
  wm.run_ms(8000);
  wl.run_ms(8000);
  const auto lm = wm.ctx->tracker.latencies(tm.id);
  const auto ll = wl.ctx->tracker.latencies(tl.id);
  ASSERT_FALSE(lm.empty());
  ASSERT_FALSE(ll.empty());
  EXPECT_LT(mean_of(lm), mean_of(ll));
}

}  // namespace
}  // namespace hermes::protocols
