// Deterministic random number generation for the simulator.
//
// Every stochastic component of the library draws from an explicitly seeded
// Rng instance; there is no ambient entropy. Identical seeds produce
// identical simulation runs, which is what makes the benchmark harness and
// the property tests reproducible.
//
// The generator is xoshiro256** seeded through splitmix64, following the
// reference construction by Blackman & Vigna. On top of the raw stream we
// provide the distributions the paper's evaluation uses: uniform ints and
// reals, normal (inter-region latency), gamma and inverse-gamma
// (intra-region latency, Marsaglia-Tsang sampling), exponential and
// Bernoulli, plus shuffle/pick utilities.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace hermes {

// splitmix64: used to expand a single 64-bit seed into generator state and
// to derive independent child streams.
std::uint64_t splitmix64(std::uint64_t& state);

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xda3e39cb94b95bdbULL);

  // Derives an independent child stream; children with distinct tags are
  // decorrelated from the parent and from each other.
  Rng fork(std::uint64_t tag);

  std::uint64_t next_u64();

  // UniformRandomBitGenerator interface so <algorithm> shuffles work too.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }
  result_type operator()() { return next_u64(); }

  // Uniform integer in [0, bound). bound must be > 0. Unbiased (rejection).
  std::uint64_t uniform_u64(std::uint64_t bound);
  // Uniform real in [0, 1).
  double uniform01();
  // Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);
  bool bernoulli(double p);

  // Normal via polar Box-Muller (cached spare).
  double normal(double mean, double stddev);
  // Gamma(shape alpha, scale theta) via Marsaglia-Tsang; alpha > 0.
  double gamma(double alpha, double theta);
  // Inverse-gamma(shape alpha, scale beta): X = beta / Gamma(alpha, 1).
  double inverse_gamma(double alpha, double beta);
  double exponential(double rate);

  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_u64(i + 1));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  // Picks one element uniformly; span must be non-empty.
  template <typename T>
  const T& pick(std::span<const T> xs) {
    HERMES_REQUIRE(!xs.empty());
    return xs[static_cast<std::size_t>(uniform_u64(xs.size()))];
  }

  // Sample `count` distinct indices from [0, n) uniformly (partial Fisher-Yates).
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count);

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace hermes
