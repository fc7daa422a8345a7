// Shoup-style (2f+1)-of-(3f+1) threshold RSA signatures.
//
// This is the threshold scheme backing HERMES's Threshold Random Seed
// (TRS): committee members produce partial signatures over (i, H(m)); any
// 2f+1 valid partials combine into a unique, publicly verifiable RSA-FDH
// signature phi(i, H(m)) whose hash is the dissemination seed.
//
// Construction (Shoup, EUROCRYPT 2000, "Practical Threshold Signatures"):
//   - RSA modulus n = pq with safe primes p = 2p'+1, q = 2q'+1; m = p'q'.
//   - d = e^{-1} mod m, shared with a degree-(k-1) polynomial f over Z_m,
//     share s_i = f(i).
//   - Partial signature on x = FDH(msg): x_i = x^{2*Delta*s_i} mod n,
//     Delta = l! (l = number of players).
//   - Each partial carries a Fiat-Shamir proof of discrete-log equality
//     log_v(v_i) = log_{x^{4*Delta}}(x_i^2), making bad partials detectable
//     without interaction.
//   - Combination over any k partials uses integer Lagrange coefficients
//     lambda'_i = Delta * prod_{j != i} (0-j)/(i-j):
//       w = prod x_i^{2*lambda'_i},  w^e = x^{e'} with e' = 4*Delta^2.
//     With a*e' + b*e = 1 (Bezout), y = w^a * x^b is the standard RSA
//     signature: y^e = x. Verification is plain RSA-FDH verify.
//
// The dealer is trusted at setup time (the paper assumes a permissioned
// committee bootstrapped out-of-band); distributed key generation is out of
// scope and noted in DESIGN.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "crypto/bignum.hpp"
#include "crypto/rsa.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "support/thread_annotations.hpp"

namespace hermes::crypto {

struct ThresholdPartial {
  std::size_t signer_index = 0;  // 1-based player index
  BigUint value;                 // x_i = x^{2*Delta*s_i} mod n
  // Fiat-Shamir proof of correctness (c, z).
  BigUint proof_c;
  BigUint proof_z;

  Bytes encode() const;
  static std::optional<ThresholdPartial> decode(BytesView bytes);
};

// Public parameters every verifier holds.
struct ThresholdRsaPublic {
  RsaPublicKey rsa;
  std::size_t players = 0;    // l = 3f+1
  std::size_t threshold = 0;  // k = 2f+1
  BigUint v;                  // verification base, a generator of squares
  std::vector<BigUint> verification_keys;  // v_i = v^{s_i}, 1-based order
};

// One player's secret share.
struct ThresholdRsaShare {
  std::size_t index = 0;  // 1-based
  BigUint s;              // f(index) mod m
};

struct ThresholdRsaKey {
  ThresholdRsaPublic pub;
  std::vector<ThresholdRsaShare> shares;
};

// Trusted-dealer key generation. `bits` is the modulus size; safe primes
// make this noticeably slower than plain RSA keygen.
ThresholdRsaKey threshold_rsa_generate(Rng& rng, std::size_t bits,
                                       std::size_t players,
                                       std::size_t threshold);

// Precomputed per-key state shared across every sign/verify/combine on the
// same public parameters: the Montgomery context for n (one division at
// construction, division-free modular arithmetic after), Delta = l!, the
// Bezout pair for e' = 4*Delta^2, a fixed-base table for the verification
// base v, the inverse of every verification key, and a cache of integer
// Lagrange coefficient sets keyed by the participating index subset. A
// committee epoch reuses one context for its whole lifetime (the scheme object
// survives view changes, so warm coefficients carry across epochs that
// re-elect the same index subset); the coefficient cache is mutex-guarded
// because the region-sharded simulation may verify/combine from worker
// threads.
//
// The context borrows `pub` — it must outlive the context (the owning
// RsaThresholdScheme keeps both).
class ThresholdRsaContext {
 public:
  explicit ThresholdRsaContext(const ThresholdRsaPublic& pub);

  const ThresholdRsaPublic& pub() const { return *pub_; }
  const MontgomeryCtx& mont() const { return mont_; }
  const BigUint& delta() const { return delta_; }
  // a, b with a*e' + b*e = 1 (x = a, y = b in ExtendedGcd terms).
  const ExtendedGcd& bezout() const { return bezout_; }
  // Powers of v covering every exponent v is raised to for an honest
  // partial: the signer's nonce r and the checker's z = s_i*c + r, at most
  // 8*ceil((|n| + 512)/8) + 1 bits.
  const MontgomeryCtx::FixedBaseTable& v_table() const { return v_table_; }
  // v_i^{-1} mod n for the 1-based player index i, or nullptr when v_i is
  // not invertible (its partials fail verification).
  const BigUint* verification_key_inverse(std::size_t index) const;

  // 2*lambda'_i for every i in `indices` (sorted, distinct, 1-based),
  // computed once per distinct subset and cached. The shared_ptr keeps a
  // returned set valid even if another thread inserts concurrently.
  std::shared_ptr<const std::map<std::size_t, BigInt>> lagrange_coeffs(
      const std::vector<std::size_t>& indices) const;

  // Number of distinct index subsets currently cached (test hook).
  std::size_t lagrange_cache_size() const;

 private:
  const ThresholdRsaPublic* pub_;
  MontgomeryCtx mont_;
  BigUint delta_;
  BigUint e_prime_;
  ExtendedGcd bezout_;
  MontgomeryCtx::FixedBaseTable v_table_;
  std::vector<std::optional<BigUint>> verification_key_inverses_;
  mutable std::mutex cache_mu_;
  mutable std::map<std::vector<std::size_t>,
                   std::shared_ptr<const std::map<std::size_t, BigInt>>>
      lagrange_cache_ HERMES_GUARDED_BY(cache_mu_);
};

// Produces player `share.index`'s partial signature with its proof. The
// proof nonce is derived deterministically from (share, message) so the
// whole system stays reproducible.
ThresholdPartial threshold_partial_sign(const ThresholdRsaContext& ctx,
                                        const ThresholdRsaShare& share,
                                        BytesView message);

// Checks the Fiat-Shamir discrete-log-equality proof of a partial.
bool threshold_verify_partial(const ThresholdRsaContext& ctx, BytesView message,
                              const ThresholdPartial& partial);

// Batched proof verification for partials over the same message: the
// Fiat-Shamir bases x = FDH(msg) and x~ = x^{4*Delta} are computed once and
// shared across the whole round's partials. out[i] == 1 iff partials[i]
// verifies; identical verdicts to per-partial threshold_verify_partial.
std::vector<std::uint8_t> threshold_verify_partials(
    const ThresholdRsaContext& ctx, BytesView message,
    std::span<const ThresholdPartial> partials);

// Combines >= threshold verified partials into the final RSA signature.
// Returns nullopt if indices repeat, fewer than threshold partials are
// given, or a non-invertible element is met (negligible probability).
std::optional<Bytes> threshold_combine(const ThresholdRsaContext& ctx,
                                       BytesView message,
                                       std::span<const ThresholdPartial> partials);

// Transient-context conveniences: build a fresh ThresholdRsaContext per
// call (the "cache cold" path — one extra division, the v table, one
// inverse per verification key and Lagrange recomputation). Hot callers
// hold a context instead.
ThresholdPartial threshold_partial_sign(const ThresholdRsaPublic& pub,
                                        const ThresholdRsaShare& share,
                                        BytesView message);
bool threshold_verify_partial(const ThresholdRsaPublic& pub, BytesView message,
                              const ThresholdPartial& partial);
std::optional<Bytes> threshold_combine(const ThresholdRsaPublic& pub,
                                       BytesView message,
                                       std::span<const ThresholdPartial> partials);

// Final signatures verify as ordinary RSA-FDH signatures. The context
// overload reuses the warm Montgomery state — it is the hot path for
// dissemination (every relayed message carries a certificate to check).
bool threshold_verify(const ThresholdRsaContext& ctx, BytesView message,
                      BytesView signature);
bool threshold_verify(const ThresholdRsaPublic& pub, BytesView message,
                      BytesView signature);

// Delta = l! as a BigUint (exposed for tests).
BigUint factorial_big(std::size_t l);

}  // namespace hermes::crypto
