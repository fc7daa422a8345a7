#include "crypto/bignum.hpp"

#include <gtest/gtest.h>

namespace hermes::crypto {
namespace {

TEST(BigUint, ZeroProperties) {
  const BigUint z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_u64(), 0u);
}

TEST(BigUint, U64RoundTrip) {
  const BigUint v(0x0123456789abcdefULL);
  EXPECT_EQ(v.to_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(v.to_hex(), "123456789abcdef");
  EXPECT_EQ(v.bit_length(), 57u);
}

TEST(BigUint, HexRoundTrip) {
  const std::string hex = "deadbeefcafebabe0123456789abcdef42";
  EXPECT_EQ(BigUint::from_hex(hex).to_hex(), hex);
}

TEST(BigUint, BytesRoundTrip) {
  const Bytes b{0x01, 0x00, 0xff, 0x80};
  const BigUint v = BigUint::from_bytes_be(b);
  EXPECT_EQ(v.to_bytes_be(), b);
  EXPECT_EQ(v.to_u64(), 0x0100ff80u);
}

TEST(BigUint, PaddedBytes) {
  const BigUint v(0xabcd);
  const Bytes padded = v.to_bytes_be_padded(6);
  EXPECT_EQ(padded, (Bytes{0, 0, 0, 0, 0xab, 0xcd}));
  EXPECT_EQ(BigUint::from_bytes_be(padded), v);
}

TEST(BigUint, AdditionWithCarryChains) {
  const BigUint a = BigUint::from_hex("ffffffffffffffffffffffffffffffff");
  const BigUint one(1);
  EXPECT_EQ((a + one).to_hex(), "100000000000000000000000000000000");
}

TEST(BigUint, SubtractionWithBorrow) {
  const BigUint a = BigUint::from_hex("100000000000000000000000000000000");
  const BigUint one(1);
  EXPECT_EQ((a - one).to_hex(), "ffffffffffffffffffffffffffffffff");
}

TEST(BigUint, AddSubInverse) {
  Rng rng(100);
  for (int i = 0; i < 50; ++i) {
    const BigUint a = BigUint::random_bits(rng, 200);
    const BigUint b = BigUint::random_bits(rng, 150);
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST(BigUint, MultiplicationKnownValue) {
  const BigUint a = BigUint::from_hex("ffffffff");
  EXPECT_EQ((a * a).to_hex(), "fffffffe00000001");
}

TEST(BigUint, MultiplicationCommutativeAndDistributive) {
  Rng rng(101);
  for (int i = 0; i < 20; ++i) {
    const BigUint a = BigUint::random_bits(rng, 120);
    const BigUint b = BigUint::random_bits(rng, 90);
    const BigUint c = BigUint::random_bits(rng, 70);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(BigUint, ShiftRoundTrip) {
  Rng rng(102);
  const BigUint a = BigUint::random_bits(rng, 100);
  for (std::size_t s : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ((a << s) >> s, a);
  }
}

TEST(BigUint, DivModIdentity) {
  Rng rng(103);
  for (int i = 0; i < 40; ++i) {
    const BigUint a = BigUint::random_bits(rng, 256);
    const BigUint b = BigUint::random_bits(rng, 1 + i % 200);
    const auto dm = BigUint::divmod(a, b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a);
    EXPECT_LT(dm.remainder, b);
  }
}

TEST(BigUint, DivModSingleLimbFastPath) {
  const BigUint a = BigUint::from_hex("123456789abcdef0123456789abcdef");
  const BigUint b(0x12345);
  const auto dm = BigUint::divmod(a, b);
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
}

TEST(BigUint, DivByLargerIsZero) {
  const BigUint a(5);
  const BigUint b(7);
  EXPECT_TRUE((a / b).is_zero());
  EXPECT_EQ(a % b, a);
}

TEST(BigUint, PowmodKnownValues) {
  // 3^100 mod 101 = 1 (Fermat).
  EXPECT_EQ(BigUint::powmod(BigUint(3), BigUint(100), BigUint(101)), BigUint(1));
  // 2^10 mod 1001 = 23.
  EXPECT_EQ(BigUint::powmod(BigUint(2), BigUint(10), BigUint(1001)), BigUint(23));
}

TEST(BigUint, PowmodFermatRandomBase) {
  Rng rng(104);
  const BigUint p = BigUint::from_hex("ffffffffffffffc5");  // 2^64 - 59, prime
  for (int i = 0; i < 10; ++i) {
    const BigUint a = BigUint::random_below(rng, p - BigUint(2)) + BigUint(1);
    EXPECT_EQ(BigUint::powmod(a, p - BigUint(1), p), BigUint(1));
  }
}

TEST(BigUint, MontgomeryPowmodMatchesReferenceOddModuli) {
  // powmod uses Montgomery CIOS for odd multi-limb moduli; cross-check
  // against the definitional square-and-multiply with divmod reduction.
  Rng rng(112);
  for (int i = 0; i < 60; ++i) {
    BigUint m = BigUint::random_bits(rng, 64 + i * 7 % 300);
    if (!m.is_odd()) m = m + BigUint(1);
    const BigUint base = BigUint::random_below(rng, m);
    const BigUint exp = BigUint::random_bits(rng, 1 + i % 96);
    // Reference: naive reduction.
    BigUint expected(1);
    for (std::size_t bit = exp.bit_length(); bit-- > 0;) {
      expected = BigUint::mulmod(expected, expected, m);
      if (exp.bit(bit)) expected = BigUint::mulmod(expected, base, m);
    }
    EXPECT_EQ(BigUint::powmod(base, exp, m), expected) << "round " << i;
  }
}

TEST(BigUint, PowmodEdgeCases) {
  const BigUint m = BigUint::from_hex("ffffffffffffffffffffffffffffff61");
  EXPECT_EQ(BigUint::powmod(BigUint(5), BigUint(), m), BigUint(1));  // e = 0
  EXPECT_EQ(BigUint::powmod(BigUint(), BigUint(9), m), BigUint());   // 0^e
  EXPECT_EQ(BigUint::powmod(BigUint(7), BigUint(1), m), BigUint(7));
  EXPECT_EQ(BigUint::powmod(BigUint(3), BigUint(4), BigUint(1)), BigUint());
}

TEST(BigUint, GcdKnownAndProperties) {
  EXPECT_EQ(BigUint::gcd(BigUint(48), BigUint(36)), BigUint(12));
  EXPECT_EQ(BigUint::gcd(BigUint(17), BigUint(13)), BigUint(1));
  Rng rng(105);
  const BigUint a = BigUint::random_bits(rng, 128);
  EXPECT_EQ(BigUint::gcd(a, BigUint()), a);
}

TEST(BigUint, ModInverse) {
  Rng rng(106);
  const BigUint m = BigUint::from_hex("ffffffffffffffc5");
  for (int i = 0; i < 10; ++i) {
    const BigUint a = BigUint::random_below(rng, m - BigUint(1)) + BigUint(1);
    BigUint inv;
    ASSERT_TRUE(BigUint::modinv(a, m, &inv));
    EXPECT_EQ(BigUint::mulmod(a, inv, m), BigUint(1));
  }
}

TEST(BigUint, ModInverseFailsForNonCoprime) {
  BigUint inv;
  EXPECT_FALSE(BigUint::modinv(BigUint(6), BigUint(9), &inv));
}

TEST(BigUint, MillerRabinKnownPrimes) {
  Rng rng(107);
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 65537ULL, 2147483647ULL}) {
    EXPECT_TRUE(BigUint::is_probable_prime(BigUint(p), rng)) << p;
  }
  // Mersenne prime 2^127 - 1.
  const BigUint m127 = (BigUint(1) << 127) - BigUint(1);
  EXPECT_TRUE(BigUint::is_probable_prime(m127, rng));
}

TEST(BigUint, MillerRabinKnownComposites) {
  Rng rng(108);
  for (std::uint64_t c : {1ULL, 4ULL, 561ULL /* Carmichael */, 65536ULL,
                          2147483647ULL * 2 + 1 /* odd composite */}) {
    if (c == 1) {
      EXPECT_FALSE(BigUint::is_probable_prime(BigUint(c), rng));
      continue;
    }
    EXPECT_FALSE(BigUint::is_probable_prime(BigUint(c), rng)) << c;
  }
  // 2^128 + 1 is composite (F7 factors known).
  const BigUint f = (BigUint(1) << 128) + BigUint(1);
  EXPECT_FALSE(BigUint::is_probable_prime(f, rng));
}

TEST(BigUint, RandomBelowIsBelow) {
  Rng rng(110);
  const BigUint bound = BigUint::from_hex("1000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigUint::random_below(rng, bound), bound);
  }
}

TEST(BigInt, SignedArithmetic) {
  const BigInt a = 7, b = -12;
  EXPECT_EQ((a + b).to_string_hex(), "-5");
  EXPECT_EQ((a - b).to_string_hex(), "13");  // 19 = 0x13
  EXPECT_EQ((a * b).to_string_hex(), "-54");  // -84 = -0x54
  EXPECT_TRUE((a + (-a)).is_zero());
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_string_hex(), "-3");
  EXPECT_EQ((BigInt(7) / BigInt(-2)).to_string_hex(), "-3");
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_string_hex(), "-1");
}

TEST(BigInt, ModPositive) {
  const BigUint m(10);
  EXPECT_EQ(BigInt(-3).mod_positive(m), BigUint(7));
  EXPECT_EQ(BigInt(13).mod_positive(m), BigUint(3));
  EXPECT_EQ(BigInt(0).mod_positive(m), BigUint());
  EXPECT_EQ(BigInt(-10).mod_positive(m), BigUint());
}

TEST(ExtendedGcdTest, BezoutIdentity) {
  Rng rng(111);
  for (int i = 0; i < 20; ++i) {
    const BigUint a = BigUint::random_bits(rng, 90);
    const BigUint b = BigUint::random_bits(rng, 60);
    const ExtendedGcd eg = extended_gcd(a, b);
    const BigInt lhs = eg.x * BigInt::from_biguint(a) + eg.y * BigInt::from_biguint(b);
    EXPECT_EQ(lhs, BigInt::from_biguint(eg.g));
    EXPECT_EQ(eg.g, BigUint::gcd(a, b));
  }
}

}  // namespace
}  // namespace hermes::crypto
