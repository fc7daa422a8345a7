#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

namespace hermes::crypto {
namespace {

// A test-local RSA-FDH signer over two 256-bit safe primes, the kind the
// threshold dealer draws: s = FDH(m)^d mod n with d = e^-1 mod phi(n).
// rsa_verify, the check every relay makes, is tested against it. Key
// generation is the slow part; share one key across tests.
struct FdhKey {
  RsaPublicKey pub;
  BigUint d;
  BigUint p;
  BigUint q;
};

const FdhKey& test_key() {
  static const FdhKey key = [] {
    Rng rng(2024);
    FdhKey k;
    k.p = random_safe_prime(rng, 256);
    k.q = random_safe_prime(rng, 256);
    k.pub = RsaPublicKey{k.p * k.q, BigUint(65537)};
    const BigUint phi = (k.p - BigUint(1)) * (k.q - BigUint(1));
    EXPECT_TRUE(BigUint::modinv(k.pub.e, phi, &k.d));
    return k;
  }();
  return key;
}

Bytes rsa_sign(const FdhKey& key, BytesView message) {
  return BigUint::powmod(fdh_encode(message, key.pub.n), key.d, key.pub.n)
      .to_bytes_be_padded(key.pub.modulus_bytes());
}

bool rsa_verify(const RsaPublicKey& pub, BytesView message, BytesView sig) {
  return rsa_verify(pub, message, sig, MontgomeryCtx(pub.n));
}

TEST(Mgf1, LengthAndDeterminism) {
  const Bytes seed = to_bytes("seed");
  const Bytes a = mgf1_sha256(seed, 100);
  const Bytes b = mgf1_sha256(seed, 100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, mgf1_sha256(to_bytes("seed2"), 100));
}

TEST(Mgf1, PrefixConsistency) {
  const Bytes seed = to_bytes("seed");
  const Bytes longer = mgf1_sha256(seed, 64);
  const Bytes shorter = mgf1_sha256(seed, 32);
  EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), longer.begin()));
}

TEST(Rsa, KeyHasExpectedShape) {
  const auto& key = test_key();
  // Product of two 256-bit safe primes is 511 or 512 bits.
  EXPECT_GE(key.pub.n.bit_length(), 511u);
  EXPECT_LE(key.pub.n.bit_length(), 512u);
  EXPECT_EQ(key.pub.e, BigUint(65537));
  EXPECT_EQ(key.p * key.q, key.pub.n);
  // e*d = 1 mod phi.
  const BigUint phi = (key.p - BigUint(1)) * (key.q - BigUint(1));
  EXPECT_EQ(BigUint::mulmod(key.pub.e, key.d, phi), BigUint(1));
}

TEST(Rsa, SignVerifyRoundTrip) {
  const auto& key = test_key();
  const Bytes msg = to_bytes("transfer 5 coins to bob");
  const Bytes sig = rsa_sign(key, msg);
  EXPECT_EQ(sig.size(), key.pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify(key.pub, msg, sig));
}

TEST(Rsa, VerifyRejectsWrongMessage) {
  const auto& key = test_key();
  const Bytes sig = rsa_sign(key, to_bytes("msg-a"));
  EXPECT_FALSE(rsa_verify(key.pub, to_bytes("msg-b"), sig));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
  const auto& key = test_key();
  Bytes sig = rsa_sign(key, to_bytes("msg"));
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(rsa_verify(key.pub, to_bytes("msg"), sig));
}

TEST(Rsa, VerifyRejectsWrongLength) {
  const auto& key = test_key();
  Bytes sig = rsa_sign(key, to_bytes("msg"));
  sig.pop_back();
  EXPECT_FALSE(rsa_verify(key.pub, to_bytes("msg"), sig));
}

TEST(Rsa, SignatureIsDeterministic) {
  const auto& key = test_key();
  EXPECT_EQ(rsa_sign(key, to_bytes("m")), rsa_sign(key, to_bytes("m")));
}

TEST(Rsa, SafePrimeIsSafe) {
  Rng rng(77);
  const BigUint p = random_safe_prime(rng, 80);
  EXPECT_TRUE(BigUint::is_probable_prime(p, rng));
  EXPECT_TRUE(BigUint::is_probable_prime((p - BigUint(1)) >> 1, rng));
  EXPECT_EQ(p.bit_length(), 80u);
}

TEST(Rsa, FdhEncodeBelowModulus) {
  const auto& key = test_key();
  for (int i = 0; i < 10; ++i) {
    std::string text = "m";
    text += std::to_string(i);
    Bytes msg = to_bytes(text);
    EXPECT_LT(fdh_encode(msg, key.pub.n), key.pub.n);
  }
}

}  // namespace
}  // namespace hermes::crypto
