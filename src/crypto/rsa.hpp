// RSA with full-domain hashing (FDH), built on the local bignum: the
// verification of a combined threshold signature (crypto/threshold_rsa.hpp),
// which every relay runs on every certificate, and the safe-prime search of
// the threshold dealer.
//
// Safe primes (p = 2p' + 1 with p' prime) are what the Shoup threshold
// scheme requires, so that the share modulus m = p'q' is odd and coprime to
// the Lagrange factorials.
#pragma once

#include <cstdint>

#include "crypto/bignum.hpp"
#include "crypto/sha256.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace hermes::crypto {

struct RsaPublicKey {
  BigUint n;
  BigUint e;
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
};

// MGF1-SHA256 expansion of `seed` to `len` output bytes (PKCS#1).
Bytes mgf1_sha256(BytesView seed, std::size_t len);

// Full-domain hash of the message into [0, n): MGF1 expanded to the modulus
// width, reduced mod n.
BigUint fdh_encode(BytesView message, const BigUint& n);

// Checks s^e = FDH(m) mod n for the fixed-width big-endian signature s,
// through a caller-held Montgomery context for the key's modulus.
// `mont.modulus()` must equal the key's n.
bool rsa_verify(const RsaPublicKey& pub, BytesView message, BytesView signature,
                const MontgomeryCtx& mont);

// Work done by random_safe_prime, added up over the calls that share it:
// candidates q drawn, and Miller-Rabin calls made.
struct SafePrimeCounts {
  std::size_t candidates = 0;
  std::size_t mr_calls = 0;
};

// Safe prime p = 2q + 1 of exactly `bits` bits (bits >= 16): the first odd q
// among rng's random_bits(bits - 1) draws for which q and 2q + 1 pass
// Miller-Rabin with their witness streams. The combined sieve, the one
// trial division, skips candidates with a small factor first; rng draws
// only candidates. Exposed for tests and the safe-prime benchmark, which
// reads `counts`.
BigUint random_safe_prime(Rng& rng, std::size_t bits,
                          SafePrimeCounts* counts = nullptr);

}  // namespace hermes::crypto
