// Differential property suite: the rewritten 64-bit kernels (Karatsuba
// multiply, squaring specialization, windowed, short-exponent and
// fixed-base Montgomery exponentiation, and the ADX addmul rows and
// Montgomery reduction where the CPU has them) pinned bit for bit against
// the frozen pre-rewrite reference kernels in crypto::ref across
// randomized operand sizes and adversarial limb shapes. Everything is
// seeded: a failure reproduces byte-identically.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/bignum.hpp"
#include "crypto/bignum_reference.hpp"

namespace hermes::crypto {
namespace {

// Operand shapes that stress the kernels in distinct ways: dense random
// limbs, maximal carry chains (all-ones), interior zero-limb holes (the
// Karatsuba split sees an empty half), sparse single bits, and short
// values padded with high zero limbs (trimming paths).
BigUint shaped(Rng& rng, std::size_t limbs, int shape) {
  if (limbs == 0) return BigUint();
  const std::size_t bits = 64 * limbs;
  switch (shape % 5) {
    case 0:
      return BigUint::random_bits(rng, bits);
    case 1:  // all ones: every limb product carries
      return (BigUint(1) << bits) - BigUint(1);
    case 2: {  // zero-limb hole in the middle
      const std::size_t third = limbs / 3 + 1;
      const BigUint hi = BigUint::random_bits(rng, 64 * third);
      const BigUint lo = BigUint::random_bits(rng, 64 * third);
      return (hi << (64 * 2 * third)) + lo;
    }
    case 3:  // sparse: top bit and bottom bit only
      return (BigUint(1) << (bits - 1)) + BigUint(1);
    default:  // low-heavy: value much shorter than its nominal width
      return BigUint::random_bits(rng, bits / 2 + 1);
  }
}

TEST(BignumDiff, MulMatchesReferenceAcrossSizesAndShapes) {
  Rng rng(0xD1FF01);
  // Sizes straddle the Karatsuba threshold (24 limbs) and the inline
  // limb-buffer capacity; every (shape_a, shape_b) pair runs at least once.
  const std::size_t sizes[] = {1, 2, 3, 5, 8, 13, 23, 24, 25, 31, 40, 64};
  int shape = 0;
  for (const std::size_t an : sizes) {
    for (const std::size_t bn : sizes) {
      const BigUint a = shaped(rng, an, shape);
      const BigUint b = shaped(rng, bn, shape / 5 + 1);
      ++shape;
      EXPECT_EQ(a * b, ref::mul(a, b)) << "an=" << an << " bn=" << bn;
    }
  }
}

TEST(BignumDiff, SquareMatchesReferenceIncludingSelfAliasing) {
  Rng rng(0xD1FF02);
  const std::size_t sizes[] = {1, 2, 7, 16, 23, 24, 25, 33, 48, 64};
  int shape = 0;
  for (const std::size_t n : sizes) {
    const BigUint a = shaped(rng, n, shape++);
    // a * a hits the squaring specialization through the self-aliased
    // operand; a * copy must agree with it and with the reference.
    const BigUint copy = a;
    const BigUint self = a * a;
    EXPECT_EQ(self, a * copy) << "n=" << n;
    EXPECT_EQ(self, ref::mul(a, a)) << "n=" << n;
  }
}

TEST(BignumDiff, MulEdgeCases) {
  const BigUint zero;
  const BigUint one(1);
  const BigUint big = (BigUint(1) << 4096) - BigUint(1);
  EXPECT_EQ(zero * big, ref::mul(zero, big));
  EXPECT_EQ(one * big, ref::mul(one, big));
  EXPECT_EQ(big * big, ref::mul(big, big));
}

TEST(BignumDiff, DivModMatchesReference) {
  Rng rng(0xD1FF03);
  for (int i = 0; i < 60; ++i) {
    const std::size_t an = 1 + static_cast<std::size_t>(i) % 48;
    const std::size_t bn = 1 + static_cast<std::size_t>(i * 7) % 32;
    const BigUint a = shaped(rng, an, i);
    BigUint b = shaped(rng, bn, i + 2);
    if (b.is_zero()) b = BigUint(1);
    const BigUintDivMod got = BigUint::divmod(a, b);
    const BigUintDivMod want = ref::divmod(a, b);
    EXPECT_EQ(got.quotient, want.quotient) << "round " << i;
    EXPECT_EQ(got.remainder, want.remainder) << "round " << i;
  }
}

TEST(BignumDiff, PowmodMatchesReferenceOddAndEvenModuli) {
  Rng rng(0xD1FF04);
  for (int i = 0; i < 24; ++i) {
    const std::size_t mlimbs = 1 + static_cast<std::size_t>(i) % 12;
    BigUint m = shaped(rng, mlimbs, i);
    if (m < BigUint(2)) m = m + BigUint(2);
    // Alternate parity: odd moduli take the windowed Montgomery ladder,
    // even ones the mulmod fallback — both must match the reference.
    if (i % 2 == 0 && !m.is_odd()) m = m + BigUint(1);
    if (i % 2 == 1 && m.is_odd()) m = m + BigUint(1);
    const BigUint base = BigUint::random_below(rng, m);
    const BigUint exp = BigUint::random_bits(rng, 1 + (i * 37) % 256);
    EXPECT_EQ(BigUint::powmod(base, exp, m), ref::powmod(base, exp, m))
        << "round " << i << " modulus parity " << (m.is_odd() ? "odd" : "even");
  }
}

TEST(BignumDiff, PowmodMatchesReferenceAt2048Bits) {
  // One full-size pair: the production operand class (2048-bit modulus,
  // 2048-bit exponent) through the w=5 window and the ADX kernels.
  Rng rng(0xD1FF05);
  BigUint m = BigUint::random_bits(rng, 2048);
  if (!m.is_odd()) m = m + BigUint(1);
  const BigUint base = BigUint::random_below(rng, m);
  const BigUint exp = BigUint::random_bits(rng, 2048);
  EXPECT_EQ(BigUint::powmod(base, exp, m), ref::powmod(base, exp, m));
}

TEST(BignumDiff, PowmodExponentEdges) {
  Rng rng(0xD1FF06);
  BigUint m = BigUint::random_bits(rng, 512);
  if (!m.is_odd()) m = m + BigUint(1);
  const BigUint base = BigUint::random_below(rng, m);
  for (const std::uint64_t e : {0ULL, 1ULL, 2ULL, 3ULL, 65537ULL}) {
    EXPECT_EQ(BigUint::powmod(base, BigUint(e), m),
              ref::powmod(base, BigUint(e), m))
        << "exp " << e;
  }
}

TEST(BignumDiff, ShortExponentPowmodMatchesReference) {
  // Below MontgomeryCtx::kShortExpBits the ladder is plain
  // square-and-multiply; 2^23 - 1 is its longest all-ones exponent, 2^23
  // and 2^24 - 1 the first windowed ones.
  Rng rng(0xD1FF08);
  for (const std::size_t bits : {256u, 1024u}) {
    BigUint m = BigUint::random_bits(rng, bits);
    if (!m.is_odd()) m = m + BigUint(1);
    const MontgomeryCtx ctx(m);
    const BigUint base = BigUint::random_below(rng, m);
    for (const std::uint64_t e :
         {3ULL, 65537ULL, (1ULL << 23) - 1, 1ULL << 23, (1ULL << 24) - 1}) {
      EXPECT_EQ(ctx.powmod(base, BigUint(e)), ref::powmod(base, BigUint(e), m))
          << bits << "-bit modulus, exp " << e;
    }
  }
}

TEST(BignumDiff, FixedBasePowmodMatchesReference) {
  // Exponents 0, 1 and all-ones up to the table's capacity, random ones one
  // bit below, at and one bit above it (the last takes the windowed path).
  Rng rng(0xD1FF09);
  for (const std::size_t bits : {256u, 512u, 1024u, 2048u}) {
    BigUint m = BigUint::random_bits(rng, bits);
    if (!m.is_odd()) m = m + BigUint(1);
    const MontgomeryCtx ctx(m);
    const BigUint base = BigUint::random_below(rng, m);
    // Sized as threshold RSA sizes the v table: |n| + 512 bits, plus one.
    const MontgomeryCtx::FixedBaseTable table =
        ctx.fixed_base_table(base, bits + 513);
    const std::size_t cap = table.max_bits();
    ASSERT_GE(cap, bits + 513);
    std::vector<BigUint> exps{BigUint(), BigUint(1),
                              (BigUint(1) << cap) - BigUint(1)};
    for (const std::size_t len : {cap - 1, cap, cap + 1}) {
      exps.push_back(BigUint::random_bits(rng, len));
    }
    for (const BigUint& e : exps) {
      EXPECT_EQ(ctx.powmod(table, e), ref::powmod(base, e, m))
          << bits << "-bit modulus, " << e.bit_length() << "-bit exponent";
    }
  }
  // Bases the ladder treats specially: zero, one past the modulus, and one
  // a limb wider than it.
  BigUint m = BigUint::random_bits(rng, 512);
  if (!m.is_odd()) m = m + BigUint(1);
  const MontgomeryCtx ctx(m);
  for (const BigUint& base :
       {BigUint(), m + BigUint(1), (m << 64) + BigUint(7)}) {
    const MontgomeryCtx::FixedBaseTable table = ctx.fixed_base_table(base, 64);
    for (const BigUint& e : {BigUint(), BigUint(5), BigUint(1) << 70}) {
      EXPECT_EQ(ctx.powmod(table, e), ref::powmod(base, e, m))
          << "base " << base.to_hex() << " exp " << e.to_hex();
    }
  }
}

TEST(BignumDiff, MontgomeryMulmodMatchesReference) {
  Rng rng(0xD1FF07);
  for (int i = 0; i < 30; ++i) {
    BigUint n = shaped(rng, 1 + static_cast<std::size_t>(i) % 33, i);
    if (!n.is_odd()) n = n + BigUint(1);
    if (n < BigUint(3)) n = BigUint(3);
    const MontgomeryCtx ctx(n);
    const BigUint a = BigUint::random_below(rng, n);
    const BigUint b = shaped(rng, 1 + static_cast<std::size_t>(i * 3) % 40, i + 1);
    EXPECT_EQ(ctx.mulmod(a, b), ref::divmod(ref::mul(a, b), n).remainder)
        << "round " << i;
  }
}

}  // namespace
}  // namespace hermes::crypto
