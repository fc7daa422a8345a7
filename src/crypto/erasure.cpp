#include "crypto/erasure.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace hermes::crypto {

namespace gf256 {

namespace {
// Log/antilog tables for generator 0x03 under polynomial 0x11b.
struct Tables {
  std::uint8_t log[256];
  std::uint8_t exp[512];
  Tables() {
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      // multiply x by generator 0x03 = x * 2 + x
      std::uint16_t x2 = x << 1;
      if (x2 & 0x100) x2 ^= 0x11b;
      x = static_cast<std::uint16_t>(x2 ^ x);
    }
    for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    log[0] = 0;  // unused
  }
};
const Tables& tables() {
  static const Tables t;
  return t;
}
}  // namespace

std::uint8_t add(std::uint8_t a, std::uint8_t b) { return a ^ b; }

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const Tables& t = tables();
  return t.exp[t.log[a] + t.log[b]];
}

std::uint8_t inv(std::uint8_t a) {
  HERMES_REQUIRE(a != 0);
  const Tables& t = tables();
  return t.exp[255 - t.log[a]];
}

std::uint8_t pow(std::uint8_t a, unsigned e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const Tables& t = tables();
  return t.exp[(static_cast<unsigned>(t.log[a]) * e) % 255];
}

}  // namespace gf256

namespace {

using Matrix = std::vector<std::vector<std::uint8_t>>;

// In-place Gauss-Jordan inversion over GF(256). Returns false if singular
// (never happens for distinct Vandermonde points).
bool invert(Matrix m, Matrix* out) {
  const std::size_t n = m.size();
  Matrix inv(n, std::vector<std::uint8_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) inv[i][i] = 1;

  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && m[pivot][col] == 0) ++pivot;
    if (pivot == n) return false;
    std::swap(m[pivot], m[col]);
    std::swap(inv[pivot], inv[col]);
    const std::uint8_t scale = gf256::inv(m[col][col]);
    for (std::size_t j = 0; j < n; ++j) {
      m[col][j] = gf256::mul(m[col][j], scale);
      inv[col][j] = gf256::mul(inv[col][j], scale);
    }
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col || m[row][col] == 0) continue;
      const std::uint8_t factor = m[row][col];
      for (std::size_t j = 0; j < n; ++j) {
        m[row][j] ^= gf256::mul(factor, m[col][j]);
        inv[row][j] ^= gf256::mul(factor, inv[col][j]);
      }
    }
  }
  *out = std::move(inv);
  return true;
}

}  // namespace

ErasureCode::ErasureCode(std::size_t data_shards, std::size_t parity_shards)
    : data_(data_shards), parity_(parity_shards) {
  HERMES_REQUIRE(data_ >= 1);
  HERMES_REQUIRE(data_ + parity_ <= kMaxShards);
}

std::vector<Shard> ErasureCode::encode(BytesView payload) const {
  // Frame: 8-byte length + payload, padded to a multiple of data_.
  Bytes framed;
  put_u64_be(framed, payload.size());
  append(framed, payload);
  const std::size_t shard_size = (framed.size() + data_ - 1) / data_;
  framed.resize(shard_size * data_, 0);

  std::vector<Shard> shards;
  shards.reserve(total_shards());
  for (std::size_t d = 0; d < data_; ++d) {
    Shard s;
    s.index = d;
    s.bytes.assign(framed.begin() + static_cast<std::ptrdiff_t>(d * shard_size),
                   framed.begin() + static_cast<std::ptrdiff_t>((d + 1) * shard_size));
    shards.push_back(std::move(s));
  }
  if (parity_ == 0) return shards;

  // Coefficients of the data polynomial: solve V * coeffs = data where
  // V[r][c] = r^c (evaluation points 0..data-1).
  Matrix v(data_, std::vector<std::uint8_t>(data_));
  for (std::size_t r = 0; r < data_; ++r) {
    for (std::size_t c = 0; c < data_; ++c) {
      v[r][c] = gf256::pow(static_cast<std::uint8_t>(r), static_cast<unsigned>(c));
    }
  }
  Matrix vinv;
  const bool ok = invert(v, &vinv);
  HERMES_REQUIRE(ok);

  for (std::size_t p = 0; p < parity_; ++p) {
    const std::uint8_t x = static_cast<std::uint8_t>(data_ + p);
    // Weight of data shard r in this parity shard: sum_c x^c * Vinv[c][r].
    std::vector<std::uint8_t> w(data_, 0);
    for (std::size_t r = 0; r < data_; ++r) {
      std::uint8_t acc = 0;
      for (std::size_t c = 0; c < data_; ++c) {
        acc ^= gf256::mul(gf256::pow(x, static_cast<unsigned>(c)), vinv[c][r]);
      }
      w[r] = acc;
    }
    Shard s;
    s.index = data_ + p;
    s.bytes.assign(shard_size, 0);
    for (std::size_t r = 0; r < data_; ++r) {
      if (w[r] == 0) continue;
      for (std::size_t j = 0; j < shard_size; ++j) {
        s.bytes[j] ^= gf256::mul(w[r], shards[r].bytes[j]);
      }
    }
    shards.push_back(std::move(s));
  }
  return shards;
}

std::optional<Bytes> ErasureCode::decode(std::span<const Shard> shards) const {
  // Pick data_ distinct valid shards, preferring data shards (cheaper).
  std::vector<const Shard*> chosen;
  std::vector<bool> seen(total_shards(), false);
  auto pick = [&](bool data_only) {
    for (const Shard& s : shards) {
      if (chosen.size() == data_) break;
      if (s.index >= total_shards() || seen[s.index]) continue;
      if (data_only && s.index >= data_) continue;
      if (!chosen.empty() && s.bytes.size() != chosen[0]->bytes.size()) continue;
      seen[s.index] = true;
      chosen.push_back(&s);
    }
  };
  pick(true);
  pick(false);
  if (chosen.size() < data_) return std::nullopt;
  const std::size_t shard_size = chosen[0]->bytes.size();
  if (shard_size == 0) return std::nullopt;

  // Recover the data shards.
  std::vector<Bytes> data(data_);
  bool all_data = true;
  for (const Shard* s : chosen) all_data = all_data && s->index < data_;
  if (all_data) {
    for (const Shard* s : chosen) data[s->index] = s->bytes;
  } else {
    // Solve B * coeffs = values with B[i][c] = x_i^c, then re-evaluate the
    // polynomial at the data points.
    Matrix b(data_, std::vector<std::uint8_t>(data_));
    for (std::size_t i = 0; i < data_; ++i) {
      for (std::size_t c = 0; c < data_; ++c) {
        b[i][c] = gf256::pow(static_cast<std::uint8_t>(chosen[i]->index),
                             static_cast<unsigned>(c));
      }
    }
    Matrix binv;
    if (!invert(b, &binv)) return std::nullopt;
    for (std::size_t d = 0; d < data_; ++d) {
      // Weight of chosen shard i in data shard d: sum_c d^c * Binv[c][i].
      std::vector<std::uint8_t> w(data_, 0);
      for (std::size_t i = 0; i < data_; ++i) {
        std::uint8_t acc = 0;
        for (std::size_t c = 0; c < data_; ++c) {
          acc ^= gf256::mul(
              gf256::pow(static_cast<std::uint8_t>(d), static_cast<unsigned>(c)),
              binv[c][i]);
        }
        w[i] = acc;
      }
      data[d].assign(shard_size, 0);
      for (std::size_t i = 0; i < data_; ++i) {
        if (w[i] == 0) continue;
        for (std::size_t j = 0; j < shard_size; ++j) {
          data[d][j] ^= gf256::mul(w[i], chosen[i]->bytes[j]);
        }
      }
    }
  }

  Bytes framed;
  framed.reserve(data_ * shard_size);
  for (const Bytes& d : data) append(framed, d);
  if (framed.size() < 8) return std::nullopt;
  const std::uint64_t length = get_u64_be(framed, 0);
  if (length > framed.size() - 8) return std::nullopt;
  return Bytes(framed.begin() + 8,
               framed.begin() + 8 + static_cast<std::ptrdiff_t>(length));
}

}  // namespace hermes::crypto
