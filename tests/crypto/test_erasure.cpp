#include "crypto/erasure.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace hermes::crypto {
namespace {

TEST(Gf256, AddIsXor) {
  EXPECT_EQ(gf256::add(0x53, 0xca), 0x53 ^ 0xca);
  EXPECT_EQ(gf256::add(0xff, 0xff), 0);
}

TEST(Gf256, MulKnownValues) {
  // AES field: 0x53 * 0xca = 0x01.
  EXPECT_EQ(gf256::mul(0x53, 0xca), 0x01);
  EXPECT_EQ(gf256::mul(0, 0x7f), 0);
  EXPECT_EQ(gf256::mul(1, 0x7f), 0x7f);
  EXPECT_EQ(gf256::mul(2, 0x80), 0x1b);  // x * x^7 = x^8 = 0x1b mod 0x11b
}

TEST(Gf256, MulCommutativeAssociativeDistributive) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_u64());
    const auto b = static_cast<std::uint8_t>(rng.next_u64());
    const auto c = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(gf256::mul(a, b), gf256::mul(b, a));
    EXPECT_EQ(gf256::mul(a, gf256::mul(b, c)), gf256::mul(gf256::mul(a, b), c));
    EXPECT_EQ(gf256::mul(a, gf256::add(b, c)),
              gf256::add(gf256::mul(a, b), gf256::mul(a, c)));
  }
}

TEST(Gf256, InverseIsExact) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = gf256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), inv), 1) << a;
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.uniform_u64(255) + 1);
    const unsigned e = static_cast<unsigned>(rng.uniform_u64(10));
    std::uint8_t expected = 1;
    for (unsigned j = 0; j < e; ++j) expected = gf256::mul(expected, a);
    EXPECT_EQ(gf256::pow(a, e), expected);
  }
  EXPECT_EQ(gf256::pow(0, 0), 1);
  EXPECT_EQ(gf256::pow(0, 3), 0);
}

Bytes random_payload(Rng& rng, std::size_t size) {
  Bytes out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(Erasure, DataShardsAloneRoundTrip) {
  const ErasureCode code(4, 2);
  Rng rng(3);
  const Bytes payload = random_payload(rng, 1000);
  auto shards = code.encode(payload);
  ASSERT_EQ(shards.size(), 6u);
  shards.resize(4);  // keep only data shards
  const auto decoded = code.decode(shards);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST(Erasure, AnyKSubsetReconstructs) {
  // The paper's configuration: (k+1, f+1+k) with k = 2, f = 1 — 3 data
  // shards out of 4 total... we use (3 data, 2 parity): any 3 of 5.
  const ErasureCode code(3, 2);
  Rng rng(4);
  const Bytes payload = random_payload(rng, 777);
  const auto shards = code.encode(payload);
  ASSERT_EQ(shards.size(), 5u);
  // Every 3-subset of the 5 shards must reconstruct.
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = a + 1; b < 5; ++b) {
      for (std::size_t c = b + 1; c < 5; ++c) {
        const std::vector<Shard> subset{shards[a], shards[b], shards[c]};
        const auto decoded = code.decode(subset);
        ASSERT_TRUE(decoded.has_value()) << a << "," << b << "," << c;
        EXPECT_EQ(*decoded, payload) << a << "," << b << "," << c;
      }
    }
  }
}

TEST(Erasure, TooFewShardsFails) {
  const ErasureCode code(3, 2);
  Rng rng(5);
  const auto shards = code.encode(random_payload(rng, 100));
  const std::vector<Shard> two{shards[4], shards[1]};
  EXPECT_FALSE(code.decode(two).has_value());
}

TEST(Erasure, DuplicateIndicesDoNotCount) {
  const ErasureCode code(3, 1);
  Rng rng(6);
  const auto shards = code.encode(random_payload(rng, 64));
  const std::vector<Shard> dup{shards[0], shards[0], shards[0]};
  EXPECT_FALSE(code.decode(dup).has_value());
}

TEST(Erasure, EmptyAndTinyPayloads) {
  const ErasureCode code(4, 3);
  for (std::size_t size : {0u, 1u, 3u, 4u, 5u}) {
    Rng rng(7 + size);
    const Bytes payload = random_payload(rng, size);
    auto shards = code.encode(payload);
    // Drop all data shards; decode from parity + one data.
    std::vector<Shard> subset{shards[0], shards[4], shards[5], shards[6]};
    const auto decoded = code.decode(subset);
    ASSERT_TRUE(decoded.has_value()) << size;
    EXPECT_EQ(*decoded, payload) << size;
  }
}

TEST(Erasure, ParityOnlyReconstruction) {
  const ErasureCode code(2, 3);
  Rng rng(8);
  const Bytes payload = random_payload(rng, 250);
  const auto shards = code.encode(payload);
  const std::vector<Shard> parity_only{shards[3], shards[4]};
  const auto decoded = code.decode(parity_only);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST(Erasure, PaperConfiguration) {
  // Section VIII-D: message into f+1+k chunks, recover from k+1. With
  // f = 1, k = 3: 4 data-equivalent... the paper's (k+1, f+1+k) maps to
  // data = k+1 = 4, total = f+1+k = 5 -> parity = 1.
  const ErasureCode code(4, 1);
  Rng rng(9);
  const Bytes payload = random_payload(rng, 250 * 16);  // a batch of txs
  const auto shards = code.encode(payload);
  ASSERT_EQ(shards.size(), 5u);
  // Lose any single shard (one faulty disjoint path).
  for (std::size_t lost = 0; lost < 5; ++lost) {
    std::vector<Shard> rest;
    for (std::size_t i = 0; i < 5; ++i) {
      if (i != lost) rest.push_back(shards[i]);
    }
    const auto decoded = code.decode(rest);
    ASSERT_TRUE(decoded.has_value()) << lost;
    EXPECT_EQ(*decoded, payload) << lost;
  }
}

TEST(Erasure, MismatchedShardSizesRejected) {
  const ErasureCode code(2, 1);
  Rng rng(10);
  auto shards = code.encode(random_payload(rng, 100));
  shards[1].bytes.pop_back();
  const std::vector<Shard> subset{shards[0], shards[1]};
  EXPECT_FALSE(code.decode(subset).has_value());
}

TEST(Erasure, RandomizedPropertySweep) {
  Rng rng(11);
  for (int round = 0; round < 40; ++round) {
    const std::size_t data = 1 + rng.uniform_u64(8);
    const std::size_t parity = rng.uniform_u64(5);
    const ErasureCode code(data, parity);
    const Bytes payload = random_payload(rng, 1 + rng.uniform_u64(600));
    auto shards = code.encode(payload);
    ASSERT_EQ(shards.size(), data + parity);
    // Random subset of exactly `data` shards.
    rng.shuffle(shards);
    shards.resize(data);
    const auto decoded = code.decode(shards);
    ASSERT_TRUE(decoded.has_value()) << "round " << round;
    EXPECT_EQ(*decoded, payload) << "round " << round;
  }
}

// Mutation harness for the erasure decoder over a 5-data, 2-parity code:
// every truncation and every bit flip of each shard, and each shard's index
// rewritten past the code or onto another shard's. Each mutant is decoded
// in the whole shard set and in a five-shard set that cannot do without it.
// decode returns nullopt or at most the bytes the data shards hold, and
// never throws; a mangled parity shard beside all five data shards still
// decodes to the payload.
TEST(ErasureDecoderMutation, TruncationsBitFlipsAndIndices) {
  const ErasureCode code(5, 2);
  Rng rng(12);
  const Bytes payload = random_payload(rng, 60);
  const std::vector<Shard> shards = code.encode(payload);
  ASSERT_EQ(shards.size(), 7u);
  const std::size_t shard_size = shards[0].bytes.size();

  const auto decode_bounded = [&](const std::vector<Shard>& set,
                                  const std::string& what) {
    std::optional<Bytes> decoded;
    EXPECT_NO_THROW(decoded = code.decode(set)) << what;
    if (decoded) {
      EXPECT_LE(decoded->size() + 8, 5 * shard_size) << what;
    }
    return decoded;
  };
  const auto check = [&](std::size_t target, const Shard& mutant,
                         bool bytes_only, const std::string& what) {
    std::vector<Shard> all = shards;
    all[target] = mutant;
    const auto decoded = decode_bounded(all, what + ", all seven");
    if (bytes_only && target >= 5) {
      EXPECT_EQ(decoded, std::optional<Bytes>(payload)) << what;
    }
    std::vector<Shard> five;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (i != target && i != (target + 1) % shards.size()) {
        five.push_back(shards[i]);
      }
    }
    five.push_back(mutant);
    decode_bounded(five, what + ", five");
  };

  for (std::size_t target = 0; target < shards.size(); ++target) {
    const std::string shard = "shard " + std::to_string(target);
    for (std::size_t len = 0; len < shard_size; ++len) {
      Shard mutant = shards[target];
      mutant.bytes.resize(len);
      check(target, mutant, true, shard + " length " + std::to_string(len));
    }
    for (std::size_t bit = 0; bit < shard_size * 8; ++bit) {
      Shard mutant = shards[target];
      mutant.bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      check(target, mutant, true, shard + " bit " + std::to_string(bit));
    }
    std::vector<std::size_t> indices = {7, 8, 255, 256, SIZE_MAX};
    for (std::size_t other = 0; other < shards.size(); ++other) {
      if (other != target) indices.push_back(other);
    }
    for (const std::size_t index : indices) {
      Shard mutant = shards[target];
      mutant.index = index;
      check(target, mutant, false, shard + " index " + std::to_string(index));
    }
  }
}

}  // namespace
}  // namespace hermes::crypto
