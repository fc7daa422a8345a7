// Primality and safe-prime keygen: is_probable_prime against exact answers
// and known pseudoprimes, the combined sieve against plain remainders, and
// random_safe_prime against independent checks and a search with no sieve.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/bignum.hpp"
#include "crypto/bignum_reference.hpp"
#include "crypto/rsa.hpp"
#include "support/rng.hpp"

namespace hermes::crypto {
namespace {

std::vector<bool> eratosthenes(std::uint32_t limit) {
  std::vector<bool> prime(limit, true);
  prime[0] = false;
  if (limit > 1) prime[1] = false;
  for (std::uint32_t i = 2; i * i < limit; ++i) {
    if (!prime[i]) continue;
    for (std::uint32_t j = i * i; j < limit; j += i) prime[j] = false;
  }
  return prime;
}

std::vector<std::uint32_t> odd_table_primes() {
  const std::vector<bool> prime = eratosthenes(kSieveBound);
  std::vector<std::uint32_t> out;
  for (std::uint32_t p = 3; p < kSieveBound; ++p) {
    if (prime[p]) out.push_back(p);
  }
  return out;
}

bool trial_division_prime(std::uint64_t n) {
  if (n < 2) return false;
  if (n % 2 == 0) return n == 2;
  for (std::uint64_t d = 3; d * d <= n; d += 2) {
    if (n % d == 0) return false;
  }
  return true;
}

// Strong probable prime to each of the first 20 prime bases, on the frozen
// reference kernels (n > 71).
bool ref_strong_probable_prime(const BigUint& n) {
  const BigUint one(1);
  const BigUint n_minus_1 = n - one;
  BigUint d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }
  for (const std::uint64_t base : {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                   41, 43, 47, 53, 59, 61, 67, 71}) {
    BigUint x = ref::powmod(BigUint(base), d, n);
    bool passes = x == one || x == n_minus_1;
    for (std::size_t i = 1; i < s && !passes; ++i) {
      x = ref::powmod(x, BigUint(2), n);
      passes = x == n_minus_1;
    }
    if (!passes) return false;
  }
  return true;
}

bool independently_prime(const BigUint& n) {
  return n.bit_length() <= 40 ? trial_division_prime(n.to_u64())
                              : ref_strong_probable_prime(n);
}

TEST(SafePrime, EveryWidthFrom16To96IsSafe) {
  for (std::size_t bits = 16; bits <= 96; ++bits) {
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
      Rng rng(seed * 1000 + bits);
      const BigUint p = random_safe_prime(rng, bits);
      const BigUint q = (p - BigUint(1)) >> 1;
      const std::string what =
          std::to_string(bits) + " bits, seed " + std::to_string(seed);
      EXPECT_EQ(p.bit_length(), bits) << what;
      EXPECT_TRUE(independently_prime(p)) << what;
      EXPECT_TRUE(independently_prime(q)) << what;
    }
  }
}

// The safe-prime search with no sieve: the same random_bits stream, the
// first q with q and 2q + 1 both probable primes, bases from a stream of
// its own.
BigUint sieveless_safe_prime(Rng& rng, std::size_t bits) {
  Rng witnesses(0x7e57);
  for (;;) {
    BigUint q = BigUint::random_bits(rng, bits - 1);
    if (!q.is_odd()) q = q + BigUint(1);
    const BigUint p = (q << 1) + BigUint(1);
    if (BigUint::is_probable_prime(q, witnesses) &&
        BigUint::is_probable_prime(p, witnesses)) {
      return p;
    }
  }
}

TEST(SafePrime, MatchesSievelessSearchAndDrawsOnlyCandidates) {
  for (const std::size_t bits : {128, 256}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng searched(seed);
      Rng reference(seed);
      SafePrimeCounts counts;
      const BigUint p = random_safe_prime(searched, bits, &counts);
      EXPECT_EQ(p, sieveless_safe_prime(reference, bits))
          << bits << " bits, seed " << seed;
      // Both rngs stand right after the accepted candidate: the search drew
      // no witness from its rng.
      EXPECT_EQ(searched.next_u64(), reference.next_u64())
          << bits << " bits, seed " << seed;
      EXPECT_GT(counts.candidates, 0u);
      EXPECT_LT(counts.mr_calls, counts.candidates);
    }
  }
}

TEST(SafePrime, CountsAreCandidatesAndTestCalls) {
  // Replays the draw stream: a candidate past the sieve costs one call, two
  // when q is prime, and the accepted one two more to confirm.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    SafePrimeCounts counts;
    const BigUint p = random_safe_prime(rng, 96, &counts);
    Rng replay(seed);
    Rng witnesses(seed);
    std::size_t calls = 2;
    for (std::size_t i = 0; i < counts.candidates; ++i) {
      BigUint q = BigUint::random_bits(replay, 95);
      if (!q.is_odd()) q = q + BigUint(1);
      if (safe_prime_sieve_rejects(q)) continue;
      calls += BigUint::is_probable_prime(q, witnesses) ? 2 : 1;
      if (i + 1 == counts.candidates) {
        EXPECT_EQ((q << 1) + BigUint(1), p);
      }
    }
    EXPECT_EQ(counts.mr_calls, calls) << "seed " << seed;
  }
}

TEST(SafePrime, CountsAddUpAcrossCalls) {
  Rng shared(9);
  SafePrimeCounts total;
  random_safe_prime(shared, 64, &total);
  random_safe_prime(shared, 64, &total);
  Rng separate(9);
  SafePrimeCounts first;
  SafePrimeCounts second;
  random_safe_prime(separate, 64, &first);
  random_safe_prime(separate, 64, &second);
  EXPECT_EQ(total.candidates, first.candidates + second.candidates);
  EXPECT_EQ(total.mr_calls, first.mr_calls + second.mr_calls);
}

bool plain_remainder_rejects(const BigUint& q,
                             const std::vector<std::uint32_t>& primes) {
  const BigUint two_q_plus_1 = (q << 1) + BigUint(1);
  for (const std::uint32_t p : primes) {
    const BigUint bp(p);
    if ((q % bp).is_zero() && q != bp) return true;
    if ((two_q_plus_1 % bp).is_zero() && two_q_plus_1 != bp) return true;
  }
  return false;
}

TEST(PrimeSieve, MatchesPlainRemainders) {
  const std::vector<std::uint32_t> primes = odd_table_primes();
  ASSERT_EQ(primes.size(), 1899u);  // pi(16384) = 1900, less the prime 2
  Rng rng(0x51e7e);
  std::size_t passed = 0;
  for (int i = 0; i < 10000; ++i) {
    BigUint q = BigUint::random_bits(rng, 511);
    if (!q.is_odd()) q = q + BigUint(1);
    const bool expected = plain_remainder_rejects(q, primes);
    ASSERT_EQ(safe_prime_sieve_rejects(q), expected) << q.to_hex();
    passed += expected ? 0 : 1;
  }
  // About 1% of odd candidates survive a 16384 bound; both sides occur.
  EXPECT_GT(passed, 20u);
  EXPECT_LT(passed, 500u);
}

TEST(PrimeSieve, NumbersNearTheTable) {
  // Odd q up to twice the bound: q or 2q + 1 may be a table prime itself,
  // which is not a rejection.
  const std::vector<std::uint32_t> primes = odd_table_primes();
  for (std::uint64_t q = 1; q < 2 * kSieveBound; q += 2) {
    ASSERT_EQ(safe_prime_sieve_rejects(BigUint(q)),
              plain_remainder_rejects(BigUint(q), primes))
        << q;
  }
}

TEST(MillerRabin, AgreesWithEratosthenesBelow2To16) {
  const std::vector<bool> prime = eratosthenes(1u << 16);
  Rng witnesses(3);
  for (std::uint32_t n = 0; n < prime.size(); ++n) {
    ASSERT_EQ(BigUint::is_probable_prime(BigUint(n), witnesses), prime[n])
        << n;
  }
}

TEST(MillerRabin, RejectsStrongPseudoprimesAndCarmichaelNumbers) {
  const std::vector<BigUint> composites = {
      // Strong pseudoprimes to the first 1, 2, 4, 11, 12 and 13 prime bases;
      // the last three have no factor below kSieveBound.
      BigUint(2047), BigUint(1373653), BigUint(3215031751ULL),
      BigUint(3825123056546413051ULL),
      BigUint::from_hex("437ae92817f9fc85b7e5"),  // 399165290221 * 798330580441
      BigUint::from_hex("2be6951adc5b22410a5fd"),  // 1287836182261 *
                                                   // 2575672364521
      // Carmichael numbers, then Chernick's (6k+1)(12k+1)(18k+1) at
      // k = 2876, whose factors 17257, 34513 and 51769 are all past the
      // table.
      BigUint(561), BigUint(41041), BigUint(825265),
      BigUint(17257ULL * 34513ULL * 51769ULL),
      // The least composite with no factor below kSieveBound: 16411^2.
      BigUint(16411ULL * 16411ULL)};
  for (const BigUint& n : composites) {
    Rng own = BigUint::witness_stream(n);
    EXPECT_FALSE(BigUint::is_probable_prime(n, own)) << n.to_hex();
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng witnesses(seed);
      EXPECT_FALSE(BigUint::is_probable_prime(n, witnesses))
          << n.to_hex() << " seed " << seed;
    }
  }
}

TEST(MillerRabin, WitnessStreamIsAFunctionOfTheNumber) {
  const BigUint n = BigUint::from_hex("437ae92817f9fc85b7e5");
  Rng a = BigUint::witness_stream(n);
  Rng b = BigUint::witness_stream(n);
  Rng other = BigUint::witness_stream(n + BigUint(2));
  const std::uint64_t first = a.next_u64();
  EXPECT_EQ(first, b.next_u64());
  EXPECT_NE(first, other.next_u64());
}

}  // namespace
}  // namespace hermes::crypto
