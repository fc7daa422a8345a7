#include "overlay/encoding.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "crypto/sim_signer.hpp"
#include "net/topology.hpp"
#include "overlay/robust_tree.hpp"

namespace hermes::overlay {
namespace {

Overlay test_overlay(std::size_t n = 40, std::size_t f = 1) {
  net::TopologyParams params;
  params.node_count = n;
  params.min_degree = 4;
  Rng trng(55);
  const net::Topology topo = net::make_topology(params, trng);
  RankTable ranks(n, 0.0);
  return build_robust_tree(topo.graph, f, ranks);
}

TEST(Encoding, RoundTripPreservesStructure) {
  const Overlay o = test_overlay();
  const auto decoded = decode_overlay(encode_overlay(o));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->node_count(), o.node_count());
  EXPECT_EQ(decoded->f(), o.f());
  EXPECT_EQ(decoded->entry_points(), o.entry_points());
  EXPECT_EQ(decoded->edge_count(), o.edge_count());
  for (net::NodeId v = 0; v < o.node_count(); ++v) {
    ASSERT_EQ(decoded->depth(v), o.depth(v));
    auto a = o.successors(v);
    auto b = decoded->successors(v);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b);
  }
  EXPECT_TRUE(decoded->is_valid());
}

TEST(Encoding, LatenciesSurviveQuantized) {
  const Overlay o = test_overlay();
  const auto decoded = decode_overlay(encode_overlay(o));
  ASSERT_TRUE(decoded.has_value());
  for (net::NodeId v = 0; v < o.node_count(); ++v) {
    for (net::NodeId c : o.successors(v)) {
      EXPECT_NEAR(decoded->link_latency(v, c), o.link_latency(v, c), 0.01);
    }
  }
}

TEST(Encoding, CompactSize) {
  const Overlay o = test_overlay(100);
  const auto encoded = encode_overlay(o);
  // A few bytes per edge plus per-node overhead; far below a naive
  // adjacency matrix (100x100).
  EXPECT_LT(encoded.size(), o.edge_count() * 8 + o.node_count() * 4 + 64);
}

TEST(Encoding, RejectsBadMagic) {
  auto enc = encode_overlay(test_overlay());
  enc[0] ^= 0xff;
  EXPECT_FALSE(decode_overlay(enc).has_value());
}

TEST(Encoding, RejectsTruncation) {
  const auto enc = encode_overlay(test_overlay());
  for (std::size_t cut : {enc.size() - 1, enc.size() / 2, std::size_t{5}}) {
    EXPECT_FALSE(
        decode_overlay(hermes::BytesView(enc.data(), cut)).has_value())
        << "cut=" << cut;
  }
}

TEST(Encoding, RejectsTrailingGarbage) {
  auto enc = encode_overlay(test_overlay());
  enc.push_back(0);
  EXPECT_FALSE(decode_overlay(enc).has_value());
}

TEST(Encoding, RejectsNodeCountPastTheInput) {
  // A 15-byte input claiming 2^62 nodes: rejected before any allocation.
  const Bytes enc = encode_overlay(test_overlay());
  hermes::Bytes forged(enc.begin(), enc.begin() + 4);  // the magic
  hermes::put_varint(forged, std::uint64_t{1} << 62);
  hermes::put_varint(forged, 1);  // f
  hermes::put_varint(forged, 0);  // no entry points
  ASSERT_EQ(forged.size(), 15u);
  EXPECT_FALSE(decode_overlay(forged).has_value());
}

// Mutation harness for the overlay decoder: every truncation and every
// single-bit flip of a 30-node overlay encoding must either be rejected
// or decode to an overlay of at most one node per two input bytes, which
// its own structural check can then judge. Nothing may throw.
TEST(OverlayDecoderMutation, TruncationsAndBitFlips) {
  const hermes::Bytes bytes = encode_overlay(test_overlay(30));
  ASSERT_TRUE(decode_overlay(bytes).has_value());
  const auto expect_bounded = [](hermes::BytesView input,
                                 const std::string& what) {
    std::optional<Overlay> decoded;
    ASSERT_NO_THROW(decoded = decode_overlay(input)) << what;
    if (!decoded) return;
    ASSERT_LE(decoded->node_count() * 2, input.size()) << what;
    ASSERT_NO_THROW(decoded->validate()) << what;
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    expect_bounded(hermes::BytesView(bytes.data(), len),
                   "length " + std::to_string(len));
  }
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    hermes::Bytes flipped = bytes;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_bounded(flipped, "bit " + std::to_string(bit));
  }
}

TEST(Encoding, CertifyAndVerify) {
  const Overlay o = test_overlay();
  const crypto::SimThresholdScheme scheme(hermes::to_bytes("committee"), 4, 3);
  const auto cert = certify_overlay(o, scheme);
  ASSERT_TRUE(cert.has_value());
  Overlay decoded;
  EXPECT_TRUE(verify_certified_overlay(*cert, scheme, &decoded));
  EXPECT_EQ(decoded.node_count(), o.node_count());
}

TEST(Encoding, VerifyRejectsTamperedEncoding) {
  const Overlay o = test_overlay();
  const crypto::SimThresholdScheme scheme(hermes::to_bytes("committee"), 4, 3);
  auto cert = certify_overlay(o, scheme);
  ASSERT_TRUE(cert.has_value());
  cert->encoded[10] ^= 1;
  EXPECT_FALSE(verify_certified_overlay(*cert, scheme));
}

TEST(Encoding, VerifyRejectsWrongCommittee) {
  const Overlay o = test_overlay();
  const crypto::SimThresholdScheme scheme(hermes::to_bytes("committee"), 4, 3);
  const crypto::SimThresholdScheme other(hermes::to_bytes("imposter"), 4, 3);
  const auto cert = certify_overlay(o, scheme);
  ASSERT_TRUE(cert.has_value());
  EXPECT_FALSE(verify_certified_overlay(*cert, other));
}

TEST(Encoding, VerifyRejectsStructurallyInvalidButSignedOverlay) {
  // A committee bug (or collusion) signing a malformed overlay must still
  // be caught by the structural validation on install.
  Overlay broken(5, 1);
  broken.add_entry_point(0);
  broken.add_entry_point(1);
  broken.set_depth(2, 2);
  broken.set_depth(3, 2);
  broken.set_depth(4, 3);
  broken.add_link(0, 2, 1.0);  // node 2 has only one predecessor
  broken.add_link(0, 3, 1.0);
  broken.add_link(1, 3, 1.0);
  broken.add_link(2, 4, 1.0);
  broken.add_link(3, 4, 1.0);
  const crypto::SimThresholdScheme scheme(hermes::to_bytes("committee"), 4, 3);
  const auto cert = certify_overlay(broken, scheme);
  ASSERT_TRUE(cert.has_value());
  EXPECT_FALSE(verify_certified_overlay(*cert, scheme));
}

}  // namespace
}  // namespace hermes::overlay
