#include "support/rng.hpp"

#include <cmath>

namespace hermes {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork(std::uint64_t tag) {
  std::uint64_t mix = next_u64() ^ (tag * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  return Rng(mix);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_u64(std::uint64_t bound) {
  HERMES_REQUIRE(bound > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
  for (;;) {
    std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform01() {
  // 53 random bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  HERMES_REQUIRE(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::normal(double mean, double stddev) {
  if (has_spare_) {
    has_spare_ = false;
    return mean + stddev * spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform_real(-1.0, 1.0);
    v = uniform_real(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return mean + stddev * (u * factor);
}

double Rng::gamma(double alpha, double theta) {
  HERMES_REQUIRE(alpha > 0.0 && theta > 0.0);
  if (alpha < 1.0) {
    // Boost to alpha+1 then scale back (Marsaglia-Tsang small-shape trick).
    const double u = uniform01();
    return gamma(alpha + 1.0, theta) * std::pow(u, 1.0 / alpha);
  }
  const double d = alpha - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = normal(0.0, 1.0);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform01();
    if (u < 1.0 - 0.0331 * (x * x) * (x * x)) return d * v * theta;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v * theta;
  }
}

double Rng::inverse_gamma(double alpha, double beta) {
  HERMES_REQUIRE(alpha > 0.0 && beta > 0.0);
  return beta / gamma(alpha, 1.0);
}

double Rng::exponential(double rate) {
  HERMES_REQUIRE(rate > 0.0);
  double u;
  do {
    u = uniform01();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t count) {
  HERMES_REQUIRE(count <= n);
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t j = i + static_cast<std::size_t>(uniform_u64(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

}  // namespace hermes
