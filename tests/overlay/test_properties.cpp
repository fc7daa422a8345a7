// Parameterized property sweeps over the overlay pipeline: for every
// (n, f, k) combination, the invariants of Section V must hold end to end —
// construction, annealing, encoding, certification.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

#include "crypto/sim_signer.hpp"
#include "net/topology.hpp"
#include "overlay/builder.hpp"
#include "overlay/overlay.hpp"
#include "overlay/encoding.hpp"
#include "overlay/roles.hpp"

namespace hermes::overlay {
namespace {

using Params = std::tuple<std::size_t /*n*/, std::size_t /*f*/, std::size_t /*k*/>;

constexpr Params P(std::size_t n, std::size_t f, std::size_t k) {
  return Params{n, f, k};
}

class OverlayPipelineProperty : public ::testing::TestWithParam<Params> {
 protected:
  void SetUp() override {
    const auto [n, f, k] = GetParam();
    net::TopologyParams tp;
    tp.node_count = n;
    tp.min_degree = std::max<std::size_t>(f + 2, 5);
    tp.connectivity = 2;
    Rng trng(1000 + n * 7 + f * 3 + k);
    topo_ = net::make_topology(tp, trng);

    BuilderParams params;
    params.f = f;
    params.k = k;
    params.annealing.initial_temperature = 5.0;
    params.annealing.min_temperature = 1.0;
    params.annealing.cooling_rate = 0.8;
    params.annealing.moves_per_temperature = 4;
    Rng rng(2000 + n + f + k);
    set_ = build_overlay_set(topo_.graph, params, rng);
  }

  net::Topology topo_;
  OverlaySet set_;
};

TEST_P(OverlayPipelineProperty, AllOverlaysStructurallyValid) {
  const auto [n, f, k] = GetParam();
  ASSERT_EQ(set_.overlays.size(), k);
  for (const Overlay& o : set_.overlays) {
    const auto errors = o.validate();
    EXPECT_TRUE(errors.empty())
        << "n=" << n << " f=" << f << " k=" << k << ": " << errors[0];
  }
}

TEST_P(OverlayPipelineProperty, EntryPointsAndPredecessorCounts) {
  const auto [n, f, k] = GetParam();
  (void)n;
  (void)k;
  for (const Overlay& o : set_.overlays) {
    EXPECT_EQ(o.entry_points().size(), f + 1);
    for (net::NodeId v = 0; v < o.node_count(); ++v) {
      if (!o.is_entry(v)) {
        EXPECT_GE(o.predecessors(v).size(), f + 1);
      }
    }
  }
}

TEST_P(OverlayPipelineProperty, EveryNodeReachableWithFiniteLatency) {
  for (const Overlay& o : set_.overlays) {
    const auto dist = o.dissemination_latencies();
    for (double d : dist) {
      EXPECT_NE(d, net::kInfLatency);
      EXPECT_GE(d, 0.0);
    }
  }
}

// Section V's resilience claim, checked exhaustively: removing ANY set of
// f nodes leaves every surviving node reachable from a surviving entry
// point (f+1 entry points plus >= f+1 predecessors per interior node).
TEST_P(OverlayPipelineProperty, SurvivesAnyFNodeRemovals) {
  const auto [n, f, k] = GetParam();
  (void)k;
  std::vector<net::NodeId> subset(f);
  for (const Overlay& o : set_.overlays) {
    // Enumerate all f-subsets of [0, n) with an odometer over sorted ids.
    std::size_t checked = 0;
    const std::function<bool(std::size_t, net::NodeId)> walk =
        [&](std::size_t depth, net::NodeId first) -> bool {
      if (depth == f) {
        ++checked;
        if (!survives_removal(o, subset)) {
          ADD_FAILURE() << "n=" << n << " f=" << f
                        << ": overlay disconnected by removing node set #"
                        << checked;
          return false;
        }
        return true;
      }
      for (net::NodeId v = first; v < n; ++v) {
        subset[depth] = v;
        if (!walk(depth + 1, v + 1)) return false;
      }
      return true;
    };
    walk(0, 0);
    EXPECT_GT(checked, 0u);
  }
}

TEST_P(OverlayPipelineProperty, EncodingRoundTripsAndCertifies) {
  const auto [n, f, k] = GetParam();
  (void)n;
  (void)k;
  const crypto::SimThresholdScheme scheme(to_bytes("sweep-committee"),
                                          3 * f + 1, 2 * f + 1);
  for (const Overlay& o : set_.overlays) {
    const auto cert = certify_overlay(o, scheme);
    ASSERT_TRUE(cert.has_value());
    Overlay decoded;
    ASSERT_TRUE(verify_certified_overlay(*cert, scheme, &decoded));
    EXPECT_EQ(decoded.edge_count(), o.edge_count());
    EXPECT_EQ(decoded.entry_points(), o.entry_points());
  }
}

TEST_P(OverlayPipelineProperty, RolesRotateAcrossOverlays) {
  const auto [n, f, k] = GetParam();
  if (k < 3) GTEST_SKIP() << "rotation needs several overlays";
  const auto fairness = fairness_metrics(set_.overlays);
  // No node may hold an entry slot in every overlay.
  EXPECT_LT(fairness.max_entry_appearances, k)
      << "n=" << n << " f=" << f << " k=" << k;
}

TEST_P(OverlayPipelineProperty, RanksArePositiveAndBounded) {
  const auto [n, f, k] = GetParam();
  for (net::NodeId v = 0; v < n; ++v) {
    EXPECT_GE(set_.final_ranks[v], static_cast<double>(k));  // >= 1 per tree
    // Upper bound: max depth contribution per tree is bounded by n.
    EXPECT_LE(set_.final_ranks[v], static_cast<double>(k * n));
  }
}

std::string grid_name(const ::testing::TestParamInfo<Params>& info) {
  std::string name = "n";
  name += std::to_string(std::get<0>(info.param));
  name += "_f";
  name += std::to_string(std::get<1>(info.param));
  name += "_k";
  name += std::to_string(std::get<2>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(Grid, OverlayPipelineProperty,
                         ::testing::Values(P(30, 1, 2), P(30, 2, 3),
                                           P(50, 1, 4), P(50, 3, 3),
                                           P(80, 2, 5), P(120, 1, 6)),
                         grid_name);

}  // namespace
}  // namespace hermes::overlay
