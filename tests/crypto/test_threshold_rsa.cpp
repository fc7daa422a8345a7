#include "crypto/threshold_rsa.hpp"

#include <gtest/gtest.h>

#include <string>

#include "crypto/bignum_reference.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace hermes::crypto {
namespace {

// f = 1 committee: 4 players, threshold 3. Safe-prime keygen is expensive;
// share one key across the suite (determinism makes this stable).
const ThresholdRsaKey& test_key() {
  static const ThresholdRsaKey key = [] {
    Rng rng(31337);
    return threshold_rsa_generate(rng, 256, /*players=*/4, /*threshold=*/3);
  }();
  return key;
}

// Straight-line reference signer and verifier: Shoup's formulas as the
// header states them, one exponentiation each, on the frozen crypto::ref
// kernels. The library must match them byte for byte and verdict for
// verdict, whatever tables it precomputes.
BigUint ref_mulmod(const BigUint& a, const BigUint& b, const BigUint& n) {
  return ref::divmod(ref::mul(a, b), n).remainder;
}

BigUint ref_challenge(std::initializer_list<const BigUint*> elems) {
  Sha256 h;
  for (const BigUint* e : elems) {
    const Bytes b = e->to_bytes_be();
    Bytes framed;
    put_varint(framed, b.size());
    append(framed, b);
    h.update(framed);
  }
  const Digest d = h.finish();
  return BigUint::from_bytes_be(BytesView(d.data(), d.size()));
}

ThresholdPartial reference_sign(const ThresholdRsaPublic& pub,
                                const ThresholdRsaShare& share,
                                BytesView message) {
  const BigUint& n = pub.rsa.n;
  const BigUint x = fdh_encode(message, n);
  const BigUint delta = factorial_big(pub.players);
  ThresholdPartial p;
  p.signer_index = share.index;
  p.value = ref::powmod(x, ref::mul(delta << 1, share.s), n);
  const BigUint x_tilde = ref::powmod(x, delta << 2, n);
  const BigUint x_i_sq = ref_mulmod(p.value, p.value, n);
  Bytes prf_key = share.s.to_bytes_be();
  put_varint(prf_key, share.index);
  Bytes nonce;
  const std::size_t nonce_bytes = (n.bit_length() + 512 + 7) / 8;
  for (std::uint32_t ctr = 0; nonce.size() < nonce_bytes; ++ctr) {
    Bytes block(message.begin(), message.end());
    put_u32_be(block, ctr);
    const Digest dg = hmac_sha256(prf_key, block);
    nonce.insert(nonce.end(), dg.begin(), dg.end());
  }
  nonce.resize(nonce_bytes);
  const BigUint r = BigUint::from_bytes_be(nonce);
  const BigUint v_r = ref::powmod(pub.v, r, n);
  const BigUint x_r = ref::powmod(x_tilde, r, n);
  p.proof_c = ref_challenge({&pub.v, &x_tilde,
                             &pub.verification_keys[share.index - 1],
                             &x_i_sq, &v_r, &x_r});
  p.proof_z = ref::mul(share.s, p.proof_c) + r;
  return p;
}

bool reference_verify(const ThresholdRsaPublic& pub, BytesView message,
                      const ThresholdPartial& p) {
  const BigUint& n = pub.rsa.n;
  if (p.signer_index < 1 || p.signer_index > pub.players) return false;
  if (p.value.is_zero() || p.value >= n) return false;
  const BigUint x = fdh_encode(message, n);
  const BigUint x_tilde =
      ref::powmod(x, factorial_big(pub.players) << 2, n);
  const BigUint x_i_sq = ref_mulmod(p.value, p.value, n);
  const BigUint& v_i = pub.verification_keys[p.signer_index - 1];
  BigUint v_i_inv, x_sq_inv;
  if (!BigUint::modinv(v_i, n, &v_i_inv)) return false;
  if (!BigUint::modinv(x_i_sq, n, &x_sq_inv)) return false;
  const BigUint v_prime = ref_mulmod(ref::powmod(pub.v, p.proof_z, n),
                                     ref::powmod(v_i_inv, p.proof_c, n), n);
  const BigUint x_prime = ref_mulmod(ref::powmod(x_tilde, p.proof_z, n),
                                     ref::powmod(x_sq_inv, p.proof_c, n), n);
  return ref_challenge({&pub.v, &x_tilde, &v_i, &x_i_sq, &v_prime,
                        &x_prime}) == p.proof_c;
}

TEST(FactorialBig, SmallValues) {
  EXPECT_EQ(factorial_big(0), BigUint(1));
  EXPECT_EQ(factorial_big(1), BigUint(1));
  EXPECT_EQ(factorial_big(5), BigUint(120));
  EXPECT_EQ(factorial_big(20), BigUint(2432902008176640000ULL));
}

TEST(ThresholdRsa, KeyShape) {
  const auto& key = test_key();
  EXPECT_EQ(key.shares.size(), 4u);
  EXPECT_EQ(key.pub.verification_keys.size(), 4u);
  EXPECT_EQ(key.pub.players, 4u);
  EXPECT_EQ(key.pub.threshold, 3u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(key.shares[i].index, i + 1);
  }
}

TEST(ThresholdRsa, PartialSignaturesVerify) {
  const auto& key = test_key();
  const Bytes msg = to_bytes("round 7 tx hash");
  for (const auto& share : key.shares) {
    const ThresholdPartial p = threshold_partial_sign(key.pub, share, msg);
    EXPECT_TRUE(threshold_verify_partial(key.pub, msg, p));
  }
}

TEST(ThresholdRsa, TamperedPartialRejected) {
  const auto& key = test_key();
  const Bytes msg = to_bytes("msg");
  ThresholdPartial p = threshold_partial_sign(key.pub, key.shares[0], msg);
  p.value = p.value + BigUint(1);
  EXPECT_FALSE(threshold_verify_partial(key.pub, msg, p));
}

TEST(ThresholdRsa, PartialForWrongMessageRejected) {
  const auto& key = test_key();
  const ThresholdPartial p =
      threshold_partial_sign(key.pub, key.shares[0], to_bytes("m1"));
  EXPECT_FALSE(threshold_verify_partial(key.pub, to_bytes("m2"), p));
}

TEST(ThresholdRsa, PartialOutOfRangeIndexRejected) {
  const auto& key = test_key();
  const Bytes msg = to_bytes("msg");
  ThresholdPartial p = threshold_partial_sign(key.pub, key.shares[0], msg);
  p.signer_index = 9;
  EXPECT_FALSE(threshold_verify_partial(key.pub, msg, p));
}

TEST(ThresholdRsa, CombineAnyThresholdSubset) {
  const auto& key = test_key();
  const Bytes msg = to_bytes("the seed message");
  std::vector<ThresholdPartial> all;
  for (const auto& share : key.shares) {
    all.push_back(threshold_partial_sign(key.pub, share, msg));
  }
  // Every 3-subset of the 4 partials combines into a verifying signature.
  std::optional<Bytes> reference;
  for (std::size_t skip = 0; skip < all.size(); ++skip) {
    std::vector<ThresholdPartial> subset;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (i != skip) subset.push_back(all[i]);
    }
    const auto sig = threshold_combine(key.pub, msg, subset);
    ASSERT_TRUE(sig.has_value()) << "subset skipping " << skip;
    EXPECT_TRUE(threshold_verify(key.pub, msg, *sig));
    if (!reference) {
      reference = sig;
    } else {
      // Uniqueness: every subset yields the same signature (the RSA-FDH
      // signature is unique), which HERMES needs for the seed.
      EXPECT_EQ(*reference, *sig);
    }
  }
}

TEST(ThresholdRsa, CombineFailsBelowThreshold) {
  const auto& key = test_key();
  const Bytes msg = to_bytes("msg");
  std::vector<ThresholdPartial> two{
      threshold_partial_sign(key.pub, key.shares[0], msg),
      threshold_partial_sign(key.pub, key.shares[1], msg)};
  EXPECT_FALSE(threshold_combine(key.pub, msg, two).has_value());
}

TEST(ThresholdRsa, CombineIgnoresDuplicateIndices) {
  const auto& key = test_key();
  const Bytes msg = to_bytes("msg");
  const auto p0 = threshold_partial_sign(key.pub, key.shares[0], msg);
  std::vector<ThresholdPartial> dup{p0, p0, p0};
  EXPECT_FALSE(threshold_combine(key.pub, msg, dup).has_value());
}

TEST(ThresholdRsa, CombinedSignatureMatchesPlainRsa) {
  // y^e == FDH(m) mod n: verify against the RSA verify path explicitly.
  const auto& key = test_key();
  const Bytes msg = to_bytes("cross-check");
  std::vector<ThresholdPartial> subset{
      threshold_partial_sign(key.pub, key.shares[0], msg),
      threshold_partial_sign(key.pub, key.shares[2], msg),
      threshold_partial_sign(key.pub, key.shares[3], msg)};
  const auto sig = threshold_combine(key.pub, msg, subset);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(rsa_verify(key.pub.rsa, msg, *sig));
}

TEST(ThresholdRsa, PartialEncodeDecodeRoundTrip) {
  const auto& key = test_key();
  const Bytes msg = to_bytes("wire");
  const ThresholdPartial p = threshold_partial_sign(key.pub, key.shares[1], msg);
  const auto decoded = ThresholdPartial::decode(p.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->signer_index, p.signer_index);
  EXPECT_EQ(decoded->value, p.value);
  EXPECT_EQ(decoded->proof_c, p.proof_c);
  EXPECT_EQ(decoded->proof_z, p.proof_z);
  EXPECT_TRUE(threshold_verify_partial(key.pub, msg, *decoded));
}

TEST(ThresholdRsa, DecodeRejectsTruncation) {
  const auto& key = test_key();
  Bytes enc = threshold_partial_sign(key.pub, key.shares[0], to_bytes("x")).encode();
  enc.pop_back();
  EXPECT_FALSE(ThresholdPartial::decode(enc).has_value());
}

TEST(ThresholdRsa, DecodeRejectsTrailingGarbage) {
  const auto& key = test_key();
  Bytes enc = threshold_partial_sign(key.pub, key.shares[0], to_bytes("x")).encode();
  enc.push_back(0x00);
  EXPECT_FALSE(ThresholdPartial::decode(enc).has_value());
}

TEST(ThresholdRsa, DecodeRejectsLengthPastTheInput) {
  // Signer index 1, then a value length of 2^64 - 11: offset + length wraps
  // to zero, so a check of their sum against the 24-byte input passes.
  Bytes enc;
  put_varint(enc, 1);
  put_varint(enc, ~std::uint64_t{0} - 10);
  enc.resize(24, 0x01);
  std::optional<ThresholdPartial> decoded;
  ASSERT_NO_THROW(decoded = ThresholdPartial::decode(enc));
  EXPECT_FALSE(decoded.has_value());
}

// Mutation harness for the partial decoder: every truncation and every
// single-bit flip of an encoded partial under the 256-bit test key must
// either be rejected or decode to a partial on which the library's verdict
// equals the reference verifier's. Nothing may throw.
TEST(PartialDecoderMutation, TruncationsAndBitFlips) {
  const auto& key = test_key();
  const ThresholdRsaContext ctx(key.pub);
  const Bytes msg = to_bytes("mutated partial");
  const Bytes bytes = threshold_partial_sign(ctx, key.shares[2], msg).encode();
  const auto expect_consistent = [&](BytesView input, const std::string& what) {
    std::optional<ThresholdPartial> decoded;
    ASSERT_NO_THROW(decoded = ThresholdPartial::decode(input)) << what;
    if (!decoded) return;
    bool verdict = false;
    ASSERT_NO_THROW(verdict = threshold_verify_partial(ctx, msg, *decoded))
        << what;
    EXPECT_EQ(verdict, reference_verify(key.pub, msg, *decoded)) << what;
  };
  expect_consistent(bytes, "unmodified");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    expect_consistent(BytesView(bytes.data(), len),
                      "length " + std::to_string(len));
  }
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    Bytes flipped = bytes;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_consistent(flipped, "bit " + std::to_string(bit));
  }
}

TEST(ThresholdRsaReference, EncodedPartialsByteIdentical) {
  const auto& key = test_key();
  const ThresholdRsaContext ctx(key.pub);
  for (const char* text : {"", "tx 1", "a longer transaction payload"}) {
    const Bytes msg = to_bytes(text);
    for (const auto& share : key.shares) {
      const ThresholdPartial got = threshold_partial_sign(ctx, share, msg);
      EXPECT_EQ(got.encode(), reference_sign(key.pub, share, msg).encode())
          << "share " << share.index << " message '" << text << "'";
      EXPECT_TRUE(reference_verify(key.pub, msg, got));
    }
  }
}

TEST(ThresholdRsaReference, VerdictsAgreeOnForgedPartials) {
  const auto& key = test_key();
  const ThresholdRsaContext ctx(key.pub);
  const Bytes msg = to_bytes("forged");
  const ThresholdPartial good = threshold_partial_sign(ctx, key.shares[1], msg);
  std::vector<std::pair<std::string, ThresholdPartial>> cases{{"honest", good}};
  ThresholdPartial p = good;
  p.value = p.value + BigUint(1);
  cases.emplace_back("tampered value", p);
  p = good;
  p.proof_c = p.proof_c + BigUint(1);
  cases.emplace_back("tampered proof_c", p);
  p = good;
  p.proof_z = p.proof_z + (BigUint(1) << ctx.v_table().max_bits());
  ASSERT_GT(p.proof_z.bit_length(), ctx.v_table().max_bits());
  cases.emplace_back("proof_z longer than the table", p);
  for (const std::size_t index : {0u, 5u}) {
    p = good;
    p.signer_index = index;
    cases.emplace_back("signer index " + std::to_string(index), p);
  }
  for (const auto& [what, partial] : cases) {
    const bool verdict = threshold_verify_partial(ctx, msg, partial);
    EXPECT_EQ(verdict, reference_verify(key.pub, msg, partial)) << what;
    EXPECT_EQ(verdict, what == "honest") << what;
    const std::vector<ThresholdPartial> one{partial};
    const std::vector<std::uint8_t> batched =
        threshold_verify_partials(ctx, msg, one);
    EXPECT_EQ(batched, std::vector<std::uint8_t>{verdict}) << what;
  }
}

TEST(ThresholdRsaContextCache, ColdVsWarmCombineByteIdentical) {
  // Same context, same subset: the first combine computes the Lagrange
  // coefficient set, the second hits the cache. Both byte streams — and
  // the transient-context (always-cold) path — must be identical.
  const auto& key = test_key();
  const ThresholdRsaContext ctx(key.pub);
  const Bytes msg = to_bytes("epoch 3 seed");
  std::vector<ThresholdPartial> subset{
      threshold_partial_sign(ctx, key.shares[0], msg),
      threshold_partial_sign(ctx, key.shares[1], msg),
      threshold_partial_sign(ctx, key.shares[2], msg)};
  EXPECT_EQ(ctx.lagrange_cache_size(), 0u);
  const auto cold = threshold_combine(ctx, msg, subset);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(ctx.lagrange_cache_size(), 1u);
  const auto warm = threshold_combine(ctx, msg, subset);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(ctx.lagrange_cache_size(), 1u);
  EXPECT_EQ(*cold, *warm);
  const auto transient = threshold_combine(key.pub, msg, subset);
  ASSERT_TRUE(transient.has_value());
  EXPECT_EQ(*cold, *transient);
}

TEST(ThresholdRsaContextCache, DistinctSubsetsAcrossViewChange) {
  // A view change rotates the responsive committee subset. The context
  // survives the rotation: epoch A combines over {1,2,3}, epoch B over
  // {2,3,4} — two cached coefficient sets, and (RSA-FDH uniqueness) the
  // same final signature from either subset. Re-electing epoch A's subset
  // later must not grow the cache.
  const auto& key = test_key();
  const ThresholdRsaContext ctx(key.pub);
  const Bytes msg = to_bytes("cross-epoch message");
  std::vector<ThresholdPartial> all;
  for (const auto& share : key.shares) {
    all.push_back(threshold_partial_sign(ctx, share, msg));
  }
  const std::vector<ThresholdPartial> epoch_a{all[0], all[1], all[2]};
  const std::vector<ThresholdPartial> epoch_b{all[1], all[2], all[3]};
  const auto sig_a = threshold_combine(ctx, msg, epoch_a);
  ASSERT_TRUE(sig_a.has_value());
  EXPECT_EQ(ctx.lagrange_cache_size(), 1u);
  const auto sig_b = threshold_combine(ctx, msg, epoch_b);
  ASSERT_TRUE(sig_b.has_value());
  EXPECT_EQ(ctx.lagrange_cache_size(), 2u);
  EXPECT_EQ(*sig_a, *sig_b);
  const auto sig_a2 = threshold_combine(ctx, msg, epoch_a);
  ASSERT_TRUE(sig_a2.has_value());
  EXPECT_EQ(ctx.lagrange_cache_size(), 2u);
  EXPECT_EQ(*sig_a, *sig_a2);
}

TEST(ThresholdRsaContextCache, CacheKeyedBySortedIndices) {
  // Partial order within a round is delivery order, not index order; the
  // cache must key on the index *set*, so a permuted subset is a hit.
  const auto& key = test_key();
  const ThresholdRsaContext ctx(key.pub);
  const Bytes msg = to_bytes("permuted");
  std::vector<ThresholdPartial> fwd{
      threshold_partial_sign(ctx, key.shares[0], msg),
      threshold_partial_sign(ctx, key.shares[1], msg),
      threshold_partial_sign(ctx, key.shares[3], msg)};
  std::vector<ThresholdPartial> rev{fwd[2], fwd[0], fwd[1]};
  const auto a = threshold_combine(ctx, msg, fwd);
  const auto b = threshold_combine(ctx, msg, rev);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(ctx.lagrange_cache_size(), 1u);
}

TEST(ThresholdRsaContextCache, ContextCombineErrorPaths) {
  // The cached-context combine must reject the same inputs the transient
  // path does: repeated indices, fewer than threshold partials — and must
  // not pollute the coefficient cache when it rejects.
  const auto& key = test_key();
  const ThresholdRsaContext ctx(key.pub);
  const Bytes msg = to_bytes("bad sets");
  const auto p0 = threshold_partial_sign(ctx, key.shares[0], msg);
  const auto p1 = threshold_partial_sign(ctx, key.shares[1], msg);
  const auto p2 = threshold_partial_sign(ctx, key.shares[2], msg);
  const std::vector<ThresholdPartial> dup{p0, p1, p0};
  EXPECT_FALSE(threshold_combine(ctx, msg, dup).has_value());
  const std::vector<ThresholdPartial> below{p0, p1};
  EXPECT_FALSE(threshold_combine(ctx, msg, below).has_value());
  const std::vector<ThresholdPartial> empty;
  EXPECT_FALSE(threshold_combine(ctx, msg, empty).has_value());
  EXPECT_EQ(ctx.lagrange_cache_size(), 0u);
  const std::vector<ThresholdPartial> good{p0, p1, p2};
  EXPECT_TRUE(threshold_combine(ctx, msg, good).has_value());
}

TEST(ThresholdRsaBatch, BatchedVerdictsMatchSingles) {
  // One good partial per player, plus a tampered value, a tampered proof,
  // and an out-of-range index mixed in: the batched verifier must return
  // exactly the per-partial verdicts, in order.
  const auto& key = test_key();
  const ThresholdRsaContext ctx(key.pub);
  const Bytes msg = to_bytes("batch round");
  std::vector<ThresholdPartial> batch;
  for (const auto& share : key.shares) {
    batch.push_back(threshold_partial_sign(ctx, share, msg));
  }
  ThresholdPartial bad_value = batch[0];
  bad_value.value = bad_value.value + BigUint(1);
  ThresholdPartial bad_proof = batch[1];
  bad_proof.proof_z = bad_proof.proof_z + BigUint(1);
  ThresholdPartial bad_index = batch[2];
  bad_index.signer_index = key.pub.players + 5;
  batch.push_back(bad_value);
  batch.push_back(bad_proof);
  batch.push_back(bad_index);
  const std::vector<std::uint8_t> verdicts =
      threshold_verify_partials(ctx, msg, batch);
  ASSERT_EQ(verdicts.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(verdicts[i] != 0, threshold_verify_partial(ctx, msg, batch[i]))
        << "partial " << i;
  }
  EXPECT_EQ(verdicts[batch.size() - 3], 0u);
  EXPECT_EQ(verdicts[batch.size() - 2], 0u);
  EXPECT_EQ(verdicts[batch.size() - 1], 0u);
}

TEST(ThresholdRsaBatch, EmptyBatch) {
  const auto& key = test_key();
  const ThresholdRsaContext ctx(key.pub);
  EXPECT_TRUE(
      threshold_verify_partials(ctx, to_bytes("nothing"), {}).empty());
}

TEST(ThresholdRsa, LargerCommittee) {
  // f = 2: 7 players, threshold 5 — exercises Lagrange over a wider set.
  Rng rng(555);
  const ThresholdRsaKey key =
      threshold_rsa_generate(rng, 256, /*players=*/7, /*threshold=*/5);
  const Bytes msg = to_bytes("f2 committee");
  std::vector<ThresholdPartial> partials;
  for (std::size_t i : {0u, 2u, 3u, 5u, 6u}) {
    partials.push_back(threshold_partial_sign(key.pub, key.shares[i], msg));
    EXPECT_TRUE(threshold_verify_partial(key.pub, msg, partials.back()));
  }
  const auto sig = threshold_combine(key.pub, msg, partials);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(threshold_verify(key.pub, msg, *sig));
}

}  // namespace
}  // namespace hermes::crypto
