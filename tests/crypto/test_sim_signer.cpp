#include "crypto/sim_signer.hpp"

#include <gtest/gtest.h>

namespace hermes::crypto {
namespace {

TEST(SimSigner, SignVerifyRoundTrip) {
  const SimSigner signer(to_bytes("node-key"));
  const Bytes msg = to_bytes("hello");
  const Bytes sig = signer.sign(msg);
  EXPECT_TRUE(signer.verify(msg, sig));
  EXPECT_FALSE(signer.verify(to_bytes("other"), sig));
}

TEST(SimSigner, TamperedSignatureRejected) {
  const SimSigner signer(to_bytes("key"));
  Bytes sig = signer.sign(to_bytes("m"));
  sig[0] ^= 1;
  EXPECT_FALSE(signer.verify(to_bytes("m"), sig));
  sig[0] ^= 1;
  sig.pop_back();
  EXPECT_FALSE(signer.verify(to_bytes("m"), sig));
}

TEST(SimSigner, DerivedSignersAreDistinct) {
  const Bytes master = to_bytes("master");
  const SimSigner a = SimSigner::derive(master, 1);
  const SimSigner b = SimSigner::derive(master, 2);
  const Bytes msg = to_bytes("m");
  EXPECT_NE(a.sign(msg), b.sign(msg));
  EXPECT_FALSE(b.verify(msg, a.sign(msg)));
  // Deterministic derivation.
  EXPECT_EQ(SimSigner::derive(master, 1).sign(msg), a.sign(msg));
}

TEST(SimThreshold, PartialsVerifyAndCombine) {
  const SimThresholdScheme scheme(to_bytes("group"), 4, 3);
  const Bytes msg = to_bytes("seq 5 hash");
  std::vector<PartialSignature> partials;
  for (std::size_t i = 1; i <= 3; ++i) {
    partials.push_back(scheme.partial_sign(i, msg));
    EXPECT_TRUE(scheme.verify_partial(msg, partials.back()));
  }
  const auto sig = scheme.combine(msg, partials);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme.verify_combined(msg, *sig));
}

TEST(SimThreshold, SubsetIndependence) {
  const SimThresholdScheme scheme(to_bytes("group"), 7, 5);
  const Bytes msg = to_bytes("m");
  std::vector<PartialSignature> s1, s2;
  for (std::size_t i : {1u, 2u, 3u, 4u, 5u}) s1.push_back(scheme.partial_sign(i, msg));
  for (std::size_t i : {3u, 4u, 5u, 6u, 7u}) s2.push_back(scheme.partial_sign(i, msg));
  const auto sig1 = scheme.combine(msg, s1);
  const auto sig2 = scheme.combine(msg, s2);
  ASSERT_TRUE(sig1 && sig2);
  EXPECT_EQ(*sig1, *sig2);
}

TEST(SimThreshold, CombineRejectsBelowThreshold) {
  const SimThresholdScheme scheme(to_bytes("group"), 4, 3);
  const Bytes msg = to_bytes("m");
  std::vector<PartialSignature> partials{scheme.partial_sign(1, msg),
                                         scheme.partial_sign(2, msg)};
  EXPECT_FALSE(scheme.combine(msg, partials).has_value());
}

TEST(SimThreshold, CombineIgnoresInvalidAndDuplicatePartials) {
  const SimThresholdScheme scheme(to_bytes("group"), 4, 3);
  const Bytes msg = to_bytes("m");
  PartialSignature forged = scheme.partial_sign(3, msg);
  forged.bytes[0] ^= 1;
  std::vector<PartialSignature> partials{
      scheme.partial_sign(1, msg), scheme.partial_sign(1, msg),
      scheme.partial_sign(2, msg), forged};
  // Only two distinct valid indices -> cannot reach threshold 3.
  EXPECT_FALSE(scheme.combine(msg, partials).has_value());
  partials.push_back(scheme.partial_sign(4, msg));
  EXPECT_TRUE(scheme.combine(msg, partials).has_value());
}

TEST(SimThreshold, WrongGroupKeyCannotVerify) {
  const SimThresholdScheme a(to_bytes("group-a"), 4, 3);
  const SimThresholdScheme b(to_bytes("group-b"), 4, 3);
  const Bytes msg = to_bytes("m");
  std::vector<PartialSignature> partials;
  for (std::size_t i = 1; i <= 3; ++i) partials.push_back(a.partial_sign(i, msg));
  const auto sig = a.combine(msg, partials);
  ASSERT_TRUE(sig.has_value());
  EXPECT_FALSE(b.verify_combined(msg, *sig));
}

TEST(SeedFromSignature, DeterministicAndSpread) {
  const Bytes sig1 = to_bytes("signature-1");
  const Bytes sig2 = to_bytes("signature-2");
  EXPECT_EQ(seed_from_signature(sig1), seed_from_signature(sig1));
  EXPECT_NE(seed_from_signature(sig1), seed_from_signature(sig2));
}

TEST(SeedFromSignature, ModKIsRoughlyUniform) {
  // The overlay selector is seed % k; check rough uniformity over many
  // distinct signatures (random-oracle behaviour of SHA-256).
  constexpr std::size_t kOverlays = 10;
  std::array<int, kOverlays> buckets{};
  for (int i = 0; i < 5000; ++i) {
    const Bytes sig = to_bytes("sig" + std::to_string(i));
    buckets[seed_from_signature(sig) % kOverlays] += 1;
  }
  for (int count : buckets) {
    EXPECT_GT(count, 350);
    EXPECT_LT(count, 650);
  }
}

// The RSA-FDH check of a combined threshold signature, the one every relay
// makes on a certificate: it holds for the signed message only, on a fresh
// Montgomery context for the scheme's modulus.
TEST(RsaSignerBackend, RoundTrip) {
  Rng rng(99);
  const RsaThresholdScheme scheme(threshold_rsa_generate(rng, 256, 4, 3));
  const Bytes msg = to_bytes("m");
  std::vector<PartialSignature> partials;
  for (std::size_t i = 1; i <= 3; ++i) {
    partials.push_back(scheme.partial_sign(i, msg));
  }
  const auto sig = scheme.combine(msg, partials);
  ASSERT_TRUE(sig.has_value());
  const RsaPublicKey& pub = scheme.public_params().rsa;
  const MontgomeryCtx mont(pub.n);
  EXPECT_EQ(sig->size(), pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify(pub, msg, *sig, mont));
  EXPECT_FALSE(rsa_verify(pub, to_bytes("n"), *sig, mont));
}

TEST(RsaThresholdBackend, RoundTripThroughInterface) {
  Rng rng(98);
  const RsaThresholdScheme scheme(
      threshold_rsa_generate(rng, 256, 4, 3));
  const Bytes msg = to_bytes("interface");
  std::vector<PartialSignature> partials;
  for (std::size_t i = 1; i <= 3; ++i) {
    partials.push_back(scheme.partial_sign(i, msg));
    EXPECT_TRUE(scheme.verify_partial(msg, partials.back()));
  }
  const auto sig = scheme.combine(msg, partials);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme.verify_combined(msg, *sig));
}

}  // namespace
}  // namespace hermes::crypto
