#include "support/bytes.hpp"

#include <gtest/gtest.h>

namespace hermes {
namespace {

TEST(Bytes, HexEncodeMatchesLiterals) {
  EXPECT_EQ(hex_encode(Bytes{}), "");
  EXPECT_EQ(hex_encode(Bytes{0x00, 0x01, 0xab, 0xff, 0x7f}), "0001abff7f");
  EXPECT_EQ(hex_encode(Bytes{0xAB, 0xCD, 0xEF}), "abcdef");
}

TEST(Bytes, U32BigEndianRoundTrip) {
  Bytes out;
  put_u32_be(out, 0xdeadbeef);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 0xde);
  EXPECT_EQ(get_u32_be(out, 0), 0xdeadbeefu);
}

TEST(Bytes, U64BigEndianRoundTrip) {
  Bytes out;
  put_u64_be(out, 0x0123456789abcdefULL);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(get_u64_be(out, 0), 0x0123456789abcdefULL);
}

TEST(Bytes, VarintRoundTripValues) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
                          0xffffffffULL, 0xffffffffffffffffULL}) {
    Bytes out;
    put_varint(out, v);
    std::size_t off = 0;
    std::uint64_t decoded = 0;
    ASSERT_TRUE(get_varint(out, &off, &decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(off, out.size());
  }
}

TEST(Bytes, VarintSingleByteForSmall) {
  Bytes out;
  put_varint(out, 127);
  EXPECT_EQ(out.size(), 1u);
}

TEST(Bytes, VarintDetectsTruncation) {
  Bytes out;
  put_varint(out, 1ULL << 40);
  out.pop_back();
  std::size_t off = 0;
  std::uint64_t decoded = 0;
  EXPECT_FALSE(get_varint(out, &off, &decoded));
}

TEST(Bytes, StringRoundTrip) {
  const std::string s = "hermes";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

TEST(Bytes, AppendConcatenates) {
  Bytes a{1, 2};
  const Bytes b{3, 4};
  append(a, b);
  EXPECT_EQ(a, (Bytes{1, 2, 3, 4}));
}

}  // namespace
}  // namespace hermes
