// Systematic Reed-Solomon erasure coding over GF(256).
//
// Section VIII-D sketches HERMES's batching optimization: "an
// (k+1, f+1+k) erasure coding scheme could divide a message into f+1+k
// chunks, each one being disseminated over one of f+1+k disjoint paths. A
// node would then receive at least k+1 chunks and recover the original
// batch of transactions." This module provides that substrate: split a
// payload into `data_shards` data chunks plus `parity_shards` parity
// chunks; any `data_shards` of the total reconstruct the payload.
//
// The code is systematic (data shards are plain slices), uses a Vandermonde
// generator matrix, and performs Gaussian elimination over GF(256) for
// reconstruction — classic textbook Reed-Solomon, implemented from scratch.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "support/bytes.hpp"

namespace hermes::crypto {

// GF(2^8) arithmetic with the AES polynomial x^8+x^4+x^3+x+1 (0x11b).
// Exposed for tests.
namespace gf256 {
std::uint8_t add(std::uint8_t a, std::uint8_t b);
std::uint8_t mul(std::uint8_t a, std::uint8_t b);
std::uint8_t inv(std::uint8_t a);  // a != 0
std::uint8_t pow(std::uint8_t a, unsigned e);
}  // namespace gf256

struct Shard {
  std::size_t index = 0;  // 0..total_shards-1 (data shards come first)
  Bytes bytes;
};

class ErasureCode {
 public:
  // Most shards one code takes: shard i is the code's value at the
  // GF(256) point i, so indices must stay distinct bytes.
  static constexpr std::size_t kMaxShards = 255;

  // data_shards >= 1, parity_shards >= 0, total <= kMaxShards.
  ErasureCode(std::size_t data_shards, std::size_t parity_shards);

  std::size_t data_shards() const { return data_; }
  std::size_t parity_shards() const { return parity_; }
  std::size_t total_shards() const { return data_ + parity_; }

  // Splits (zero-padding to a multiple of data_shards) and encodes.
  // Shard size = ceil((payload size + 8-byte length header) / data_shards).
  std::vector<Shard> encode(BytesView payload) const;

  // Reconstructs from any data_shards distinct shards. Returns nullopt if
  // fewer than data_shards distinct valid indices are supplied or shard
  // sizes disagree.
  std::optional<Bytes> decode(std::span<const Shard> shards) const;

 private:
  std::size_t data_;
  std::size_t parity_;
};

}  // namespace hermes::crypto
