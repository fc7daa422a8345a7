#include "net/serialization.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

namespace hermes::net {
namespace {

Topology sample_topology(std::size_t n = 30) {
  TopologyParams params;
  params.node_count = n;
  params.min_degree = 4;
  Rng rng(404);
  return make_topology(params, rng);
}

void expect_equal(const Topology& a, const Topology& b) {
  ASSERT_EQ(a.graph.node_count(), b.graph.node_count());
  ASSERT_EQ(a.regions, b.regions);
  ASSERT_EQ(a.graph.edge_count(), b.graph.edge_count());
  for (NodeId v = 0; v < a.graph.node_count(); ++v) {
    for (const Edge& e : a.graph.neighbors(v)) {
      const auto lat = b.graph.edge_latency(v, e.to);
      ASSERT_TRUE(lat.has_value()) << v << "-" << e.to;
      EXPECT_NEAR(*lat, e.latency_ms, 0.002);
    }
  }
}

TEST(TopologySerialization, BinaryRoundTrip) {
  const Topology topo = sample_topology();
  const auto decoded = deserialize_topology(serialize_topology(topo));
  ASSERT_TRUE(decoded.has_value());
  expect_equal(topo, *decoded);
}

TEST(TopologySerialization, RejectsBadMagicAndTruncation) {
  auto bytes = serialize_topology(sample_topology());
  auto bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_FALSE(deserialize_topology(bad).has_value());
  bytes.pop_back();
  EXPECT_FALSE(deserialize_topology(bytes).has_value());
}

TEST(TopologySerialization, RejectsNodeCountPastTheInput) {
  // A few bytes claiming 2^62 nodes: one region byte per node cannot
  // follow, so nothing may be sized by the claim.
  hermes::Bytes forged;
  hermes::put_u32_be(forged, 0x544f5031);  // "TOP1"
  hermes::put_varint(forged, std::uint64_t{1} << 62);
  forged.insert(forged.end(), {0, 1, 2, 0});
  EXPECT_FALSE(deserialize_topology(forged).has_value());
}

TEST(TopologySerialization, RejectsZeroLatency) {
  // Two nodes, one edge of latency 0, which the CSV reader rejects too.
  hermes::Bytes bytes;
  hermes::put_u32_be(bytes, 0x544f5031);  // "TOP1"
  hermes::put_varint(bytes, 2);
  bytes.insert(bytes.end(), {0, 1});
  hermes::put_varint(bytes, 1);
  hermes::put_varint(bytes, 0);
  hermes::put_varint(bytes, 1);
  hermes::Bytes ok = bytes;
  hermes::put_varint(ok, 1);
  ASSERT_TRUE(deserialize_topology(ok).has_value());
  hermes::put_varint(bytes, 0);
  EXPECT_FALSE(deserialize_topology(bytes).has_value());
}

TEST(TopologySerialization, FileRoundTrip) {
  const Topology topo = sample_topology(20);
  const std::string path = ::testing::TempDir() + "/hermes_topo.bin";
  ASSERT_TRUE(save_topology(topo, path));
  const auto loaded = load_topology(path);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(topo, *loaded);
  std::remove(path.c_str());
}

TEST(TopologySerialization, LoadMissingFileFails) {
  EXPECT_FALSE(load_topology("/nonexistent/definitely/missing.bin").has_value());
}

TEST(TopologyCsv, ParsesEdgesAndRegions) {
  const std::string csv =
      "# comment line\n"
      "0,1,12.5\n"
      "1,2,90\n"
      "region,2,4\n"
      "\n"
      "0,2,45.25\n";
  const auto topo = topology_from_csv(csv);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->graph.node_count(), 3u);
  EXPECT_EQ(topo->graph.edge_count(), 3u);
  EXPECT_DOUBLE_EQ(*topo->graph.edge_latency(0, 1), 12.5);
  EXPECT_DOUBLE_EQ(*topo->graph.edge_latency(0, 2), 45.25);
  EXPECT_EQ(topo->regions[2], static_cast<Region>(4));
  // Non-overridden nodes get round-robin regions.
  EXPECT_EQ(topo->regions[0], static_cast<Region>(0));
}

TEST(TopologyCsv, RejectsMalformedInput) {
  EXPECT_FALSE(topology_from_csv("").has_value());
  EXPECT_FALSE(topology_from_csv("0,1\n").has_value());
  EXPECT_FALSE(topology_from_csv("0,0,5\n").has_value());          // self-loop
  EXPECT_FALSE(topology_from_csv("0,1,-3\n").has_value());         // negative
  EXPECT_FALSE(topology_from_csv("a,b,c\n").has_value());          // non-numeric
  EXPECT_FALSE(topology_from_csv("region,0,99\n0,1,5\n").has_value());
  EXPECT_FALSE(topology_from_csv("0,1,nan\n").has_value());
  EXPECT_FALSE(topology_from_csv("0,1,inf\n").has_value());
  // Every id below the largest must appear in some line.
  EXPECT_FALSE(topology_from_csv("0,2,5\n").has_value());
  EXPECT_TRUE(topology_from_csv("0,2,5\nregion,1,3\n").has_value());
}

TEST(TopologyCsv, RejectsIdsPastTheLines) {
  // One line naming id 2^63: sizing the graph by it cannot succeed.
  EXPECT_FALSE(topology_from_csv("0,9223372036854775808,1\n").has_value());
}

TEST(TopologyCsv, CsvRoundTrip) {
  const Topology topo = sample_topology(15);
  const auto parsed = topology_from_csv(topology_to_csv(topo));
  ASSERT_TRUE(parsed.has_value());
  expect_equal(topo, *parsed);
}

TEST(TopologyCsv, UsableBySimulator) {
  // A CSV-loaded world must drive the simulator like a synthesized one.
  const std::string csv =
      "0,1,5\n0,2,5\n1,2,5\n1,3,5\n2,3,5\n3,0,5\n";
  const auto topo = topology_from_csv(csv);
  ASSERT_TRUE(topo.has_value());
  EXPECT_TRUE(topo->graph.is_connected());
  EXPECT_EQ(topo->graph.node_count(), 4u);
}

// Mutation harness for both topology decoders: every truncation and every
// single-bit flip of a serialized 30-node topology (binary and CSV) must
// either be rejected or decode to a topology no larger than its input,
// with finite, positive latencies. Nothing may throw.
void expect_sane(const std::optional<Topology>& topo, std::size_t input_bytes) {
  if (!topo) return;
  ASSERT_LE(topo->graph.node_count(), input_bytes);
  ASSERT_EQ(topo->regions.size(), topo->graph.node_count());
  for (NodeId v = 0; v < topo->graph.node_count(); ++v) {
    ASSERT_LT(static_cast<std::size_t>(topo->regions[v]), kRegionCount);
    for (const Edge& e : topo->graph.neighbors(v)) {
      ASSERT_TRUE(std::isfinite(e.latency_ms) && e.latency_ms > 0.0)
          << v << "-" << e.to << " " << e.latency_ms;
    }
  }
}

TEST(TopologyDecoderMutation, BinaryTruncationsAndBitFlips) {
  const hermes::Bytes bytes = serialize_topology(sample_topology());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const hermes::Bytes cut(bytes.begin(), bytes.begin() + len);
    std::optional<Topology> topo;
    ASSERT_NO_THROW(topo = deserialize_topology(cut)) << "length " << len;
    expect_sane(topo, cut.size());
  }
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    hermes::Bytes flipped = bytes;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    std::optional<Topology> topo;
    ASSERT_NO_THROW(topo = deserialize_topology(flipped)) << "bit " << bit;
    expect_sane(topo, flipped.size());
  }
}

TEST(TopologyDecoderMutation, CsvTruncationsAndBitFlips) {
  const std::string text = topology_to_csv(sample_topology());
  for (std::size_t len = 0; len < text.size(); ++len) {
    const std::string cut = text.substr(0, len);
    std::optional<Topology> topo;
    ASSERT_NO_THROW(topo = topology_from_csv(cut)) << "length " << len;
    expect_sane(topo, cut.size());
  }
  for (std::size_t bit = 0; bit < text.size() * 8; ++bit) {
    std::string flipped = text;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    std::optional<Topology> topo;
    ASSERT_NO_THROW(topo = topology_from_csv(flipped)) << "bit " << bit;
    expect_sane(topo, flipped.size());
  }
}

}  // namespace
}  // namespace hermes::net
