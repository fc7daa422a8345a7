#include "crypto/rsa.hpp"

#include "support/assert.hpp"

namespace hermes::crypto {

Bytes mgf1_sha256(BytesView seed, std::size_t len) {
  Bytes out;
  out.reserve(len + kSha256DigestSize);
  std::uint32_t counter = 0;
  while (out.size() < len) {
    Sha256 h;
    h.update(seed);
    const std::uint8_t ctr[4] = {
        static_cast<std::uint8_t>(counter >> 24),
        static_cast<std::uint8_t>(counter >> 16),
        static_cast<std::uint8_t>(counter >> 8),
        static_cast<std::uint8_t>(counter)};
    ++counter;
    h.update(BytesView(ctr, sizeof ctr));
    const Digest d = h.finish();
    out.insert(out.end(), d.begin(), d.end());
  }
  out.resize(len);
  return out;
}

BigUint fdh_encode(BytesView message, const BigUint& n) {
  const Digest seed = sha256(message);
  const Bytes expanded =
      mgf1_sha256(BytesView(seed.data(), seed.size()), (n.bit_length() + 7) / 8);
  return BigUint::from_bytes_be(expanded) % n;
}

BigUint random_safe_prime(Rng& rng, std::size_t bits,
                          SafePrimeCounts* counts) {
  HERMES_REQUIRE(bits >= 16);
  SafePrimeCounts local;
  SafePrimeCounts& c = counts != nullptr ? *counts : local;
  for (;;) {
    // One draw per candidate q. The sieve skips only numbers with a small
    // factor, and each number's 8 screening and 24 confirming rounds are
    // the first 32 bases of its own witness stream, so the result is the
    // first q in the draw stream with q and 2q + 1 prime, whatever the
    // sieve bound.
    BigUint q = BigUint::random_bits(rng, bits - 1);
    if (!q.is_odd()) q = q + BigUint(1);
    ++c.candidates;
    if (safe_prime_sieve_rejects(q)) continue;
    const BigUint p = (q << 1) + BigUint(1);
    Rng q_witnesses = BigUint::witness_stream(q);
    ++c.mr_calls;
    if (!BigUint::is_probable_prime(q, q_witnesses, 8)) continue;
    Rng p_witnesses = BigUint::witness_stream(p);
    ++c.mr_calls;
    if (!BigUint::is_probable_prime(p, p_witnesses, 8)) continue;
    ++c.mr_calls;
    if (!BigUint::is_probable_prime(q, q_witnesses, 24)) continue;
    ++c.mr_calls;
    if (BigUint::is_probable_prime(p, p_witnesses, 24)) return p;
  }
}

bool rsa_verify(const RsaPublicKey& pub, BytesView message, BytesView signature,
                const MontgomeryCtx& mont) {
  HERMES_DCHECK(mont.modulus() == pub.n);
  if (signature.size() != pub.modulus_bytes()) return false;
  const BigUint s = BigUint::from_bytes_be(signature);
  if (s >= pub.n) return false;
  const BigUint recovered = mont.powmod(s, pub.e);
  return recovered == fdh_encode(message, pub.n);
}

}  // namespace hermes::crypto
