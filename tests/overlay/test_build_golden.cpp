// Pins build_overlay_set's output bit for bit. Each digest covers every
// tree's wire encoding, each node's successor list in storage order with
// its exact link latencies, and the final rank table. The settings are the
// end-to-end benchmark's: default topology parameters (minimum degree 6,
// 2-connected), k = 3 and the short anneal schedule. Any change to a tie
// rule, a search latency or an rng draw in the set-up path moves a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "crypto/sha256.hpp"
#include "net/topology.hpp"
#include "overlay/builder.hpp"
#include "overlay/encoding.hpp"

namespace hermes::overlay {
namespace {

void put_double(Bytes& out, double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  put_u64_be(out, bits);
}

std::string overlay_set_digest(std::size_t n, std::size_t f) {
  net::TopologyParams tp;
  tp.node_count = n;
  Rng topo_rng(1);
  const net::Topology topo = net::make_topology(tp, topo_rng);

  BuilderParams params;
  params.f = f;
  params.k = 3;
  params.annealing.initial_temperature = 5.0;
  params.annealing.min_temperature = 1.0;
  params.annealing.cooling_rate = 0.8;
  params.annealing.moves_per_temperature = 4;
  Rng rng(42);
  const OverlaySet set = build_overlay_set(topo.graph, params, rng);

  crypto::Sha256 h;
  for (const Overlay& o : set.overlays) {
    EXPECT_TRUE(o.is_valid());
    h.update(encode_overlay(o));
    Bytes links;
    for (NodeId v = 0; v < o.node_count(); ++v) {
      put_u32_be(links, static_cast<std::uint32_t>(o.successors(v).size()));
      for (NodeId c : o.successors(v)) {
        put_u32_be(links, c);
        put_double(links, o.link_latency(v, c));
      }
    }
    h.update(links);
  }
  Bytes ranks;
  for (double r : set.final_ranks) put_double(ranks, r);
  h.update(ranks);
  return hex_encode(crypto::digest_to_bytes(h.finish()));
}

TEST(OverlaySetGolden, N200F1) {
  EXPECT_EQ(overlay_set_digest(200, 1),
            "798a92e673956d847c95486507cc9e7631f92b152017b2093604d829d64b6cee");
}

TEST(OverlaySetGolden, N200F2) {
  EXPECT_EQ(overlay_set_digest(200, 2),
            "8c2cc0f71528d9e4d79b4241bca01913f2691340db6462f1cb4919db28a784d6");
}

TEST(OverlaySetGolden, N1000F1) {
  EXPECT_EQ(overlay_set_digest(1000, 1),
            "05a4109d2d799904db30550bad406c34f6f3f0d6851f60b8e36eb70ed8f07416");
}

TEST(OverlaySetGolden, N1000F2) {
  EXPECT_EQ(overlay_set_digest(1000, 2),
            "7c4b44d3688573eaa8a3918260fbf43eeee9c4662eb5be2d588acee57dc9203b");
}

}  // namespace
}  // namespace hermes::overlay
