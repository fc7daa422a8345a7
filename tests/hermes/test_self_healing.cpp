// End-to-end self-healing loop (detect -> repair -> recover): silent
// predecessors earn departure reports, f+1 reports converge every honest
// node on the same locally repaired trees, dissemination keeps working
// around the hole, and sustained degradation triggers a committee view
// change. Also covers the TRS give-up path (the "detect" feed for a dead
// committee).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "../protocols/harness.hpp"
#include "hermes/hermes_node.hpp"
#include "overlay/encoding.hpp"

namespace hermes::hermes_proto {
namespace {

using protocols::honest_coverage;
using protocols::inject_tx;
using protocols::testing::World;

HermesConfig healing_config() {
  HermesConfig config;
  config.f = 1;
  config.k = 2;  // concentrate traffic so silence evidence accrues fast
  config.enable_self_healing = true;
  config.health_tick_ms = 250.0;
  config.builder.annealing.initial_temperature = 5.0;
  config.builder.annealing.min_temperature = 1.0;
  config.builder.annealing.cooling_rate = 0.8;
  config.builder.annealing.moves_per_temperature = 4;
  return config;
}

const HermesNode& hermes_at(World& w, net::NodeId v) {
  return static_cast<const HermesNode&>(w.ctx->node(v));
}

net::NodeId pick_sender(const HermesShared& shared) {
  net::NodeId v = 0;
  while (shared.is_committee_member(v)) ++v;
  return v;
}

// A non-committee node that relays for someone in at least one overlay —
// its successors are the witnesses whose silence strikes add up.
net::NodeId pick_internal_victim(const HermesShared& shared,
                                 net::NodeId avoid) {
  for (net::NodeId v = 0; v < shared.overlays[0].node_count(); ++v) {
    if (v == avoid || shared.is_committee_member(v)) continue;
    for (const auto& ov : shared.overlays) {
      if (!ov.successors(v).empty()) return v;
    }
  }
  return net::NodeId(-1);
}

TEST(SelfHealing, CrashedRelayIsDetectedRemovedAndRepairedAround) {
  HermesProtocol protocol(healing_config());
  World w(30, protocol, 11);
  w.start();
  const net::NodeId sender = pick_sender(*protocol.shared());
  const net::NodeId victim = pick_internal_victim(*protocol.shared(), sender);
  ASSERT_NE(victim, net::NodeId(-1));

  // Steady traffic keeps both trees warm, then the victim goes silent.
  for (int i = 0; i < 5; ++i) {
    inject_tx(*w.ctx, sender);
    w.run_ms(100);
  }
  w.crash(victim);
  for (int i = 0; i < 30; ++i) {
    inject_tx(*w.ctx, sender);
    w.run_ms(100);
  }
  w.run_ms(3000);  // let reports gossip and repairs settle

  // Detection: the victim's former successors filed signed reports...
  std::size_t reports = 0;
  for (net::NodeId v = 0; v < 30; ++v) {
    if (v == victim) continue;
    reports += hermes_at(w, v).departure_reports_sent();
  }
  EXPECT_GE(reports, protocol.shared()->config.f + 1);
  // ...and f+1 of them convinced every live honest node.
  for (net::NodeId v = 0; v < 30; ++v) {
    if (v == victim) continue;
    EXPECT_EQ(hermes_at(w, v).removed_nodes().count(victim), 1u)
        << "node " << v << " never marked the victim departed";
  }

  // Repair convergence: equal removal sets imply byte-identical repaired
  // trees (the repair is a pure function of pristine trees + removal set).
  std::map<std::string, std::vector<net::NodeId>> groups;
  for (net::NodeId v = 0; v < 30; ++v) {
    if (v == victim) continue;
    std::string key;
    for (net::NodeId r : hermes_at(w, v).removed_nodes()) {
      key += std::to_string(r) + ",";
    }
    groups[key].push_back(v);
  }
  for (const auto& [key, members] : groups) {
    const HermesNode& base = hermes_at(w, members.front());
    for (std::size_t idx = 0; idx < protocol.shared()->overlays.size();
         ++idx) {
      const overlay::Overlay* expect = base.repaired_overlay(idx);
      for (net::NodeId v : members) {
        const overlay::Overlay* got = hermes_at(w, v).repaired_overlay(idx);
        ASSERT_EQ(expect == nullptr, got == nullptr)
            << "node " << v << " overlay " << idx;
        if (expect != nullptr) {
          EXPECT_EQ(overlay::encode_overlay(*expect),
                    overlay::encode_overlay(*got))
              << "node " << v << " overlay " << idx << " repair diverged";
        }
      }
    }
  }
  // The crash actually required surgery on at least one tree.
  bool any_repair = false;
  for (std::size_t idx = 0; idx < protocol.shared()->overlays.size(); ++idx) {
    any_repair |= hermes_at(w, sender).repaired_overlay(idx) != nullptr;
  }
  EXPECT_TRUE(any_repair);

  // Recovery: a transaction injected after the repair reaches every live
  // honest node over the patched trees.
  const auto tx = inject_tx(*w.ctx, sender);
  w.run_ms(5000);
  for (net::NodeId v = 0; v < 30; ++v) {
    if (v == victim || v == sender) continue;
    EXPECT_TRUE(w.ctx->tracker.delivered(tx.id, v)) << "node " << v;
  }
}

TEST(SelfHealing, SustainedDegradationTriggersOneViewChange) {
  HermesConfig config = healing_config();
  // One departure (score 1.0) is enough to vote; the huge cooldown pins the
  // run to at most a single automatic advance.
  config.view_change_threshold = 0.9;
  config.view_change_cooldown_ms = 1e6;
  HermesProtocol protocol(config);
  World w(30, protocol, 13);
  w.start();
  const net::NodeId sender = pick_sender(*protocol.shared());
  const net::NodeId victim = pick_internal_victim(*protocol.shared(), sender);
  ASSERT_NE(victim, net::NodeId(-1));

  EXPECT_EQ(protocol.auto_advances(), 0u);
  for (int i = 0; i < 5; ++i) {
    inject_tx(*w.ctx, sender);
    w.run_ms(100);
  }
  w.crash(victim);
  for (int i = 0; i < 30; ++i) {
    inject_tx(*w.ctx, sender);
    w.run_ms(100);
  }
  w.run_ms(3000);

  // f+1 committee votes for epoch 0 fired exactly one rebuild.
  EXPECT_EQ(protocol.auto_advances(), 1u);
  EXPECT_EQ(protocol.shared()->epoch, 1u);
  for (net::NodeId v = 0; v < 30; ++v) {
    if (v == victim) continue;
    EXPECT_EQ(hermes_at(w, v).current_epoch(), 1u) << "node " << v;
  }

  // The fresh generation serves traffic normally.
  const auto tx = inject_tx(*w.ctx, sender);
  w.run_ms(5000);
  for (net::NodeId v = 0; v < 30; ++v) {
    if (v == victim || v == sender) continue;
    EXPECT_TRUE(w.ctx->tracker.delivered(tx.id, v)) << "node " << v;
  }
}

TEST(SelfHealing, HealthyRunNeverVotesForViewChange) {
  HermesProtocol protocol(healing_config());
  World w(30, protocol, 17);
  w.start();
  const net::NodeId sender = pick_sender(*protocol.shared());
  for (int i = 0; i < 10; ++i) {
    inject_tx(*w.ctx, sender);
    w.run_ms(200);
  }
  w.run_ms(4000);
  EXPECT_EQ(protocol.auto_advances(), 0u);
  for (net::NodeId v = 0; v < 30; ++v) {
    EXPECT_TRUE(hermes_at(w, v).removed_nodes().empty()) << "node " << v;
    EXPECT_EQ(hermes_at(w, v).departure_reports_sent(), 0u) << "node " << v;
  }
}

TEST(SelfHealing, DeadCommitteeExhaustsTrsRetriesAndGivesUp) {
  // Regression for the retry bound: with the whole committee down, the
  // origin must stop after HermesNode::kTrsRetryMaxAttempts (4.8 s), drop
  // its pending entry, and record the give-up — not spin forever.
  HermesProtocol protocol(healing_config());
  World w(30, protocol, 19);
  w.start();
  for (net::NodeId member : protocol.shared()->committee) w.crash(member);
  const net::NodeId sender = pick_sender(*protocol.shared());
  const auto tx = inject_tx(*w.ctx, sender);
  w.run_ms(8000);
  const HermesNode& origin = hermes_at(w, sender);
  // The health monitor counts the give-up among its degradation signals.
  EXPECT_EQ(origin.health().trs_give_ups(), 1u);
  EXPECT_GT(origin.trs_requests_sent(), 0u);
  // No certificate was ever produced, so nothing disseminated.
  EXPECT_DOUBLE_EQ(honest_coverage(*w.ctx, tx), 0.0);
}

}  // namespace
}  // namespace hermes::hermes_proto
