#include "crypto/threshold_rsa.hpp"

#include <algorithm>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "support/assert.hpp"

namespace hermes::crypto {

namespace {

void put_biguint(Bytes& out, const BigUint& v) {
  const Bytes raw = v.to_bytes_be();
  put_varint(out, raw.size());
  append(out, raw);
}

bool get_biguint(BytesView in, std::size_t* offset, BigUint* v) {
  std::uint64_t len = 0;
  if (!get_varint(in, offset, &len)) return false;
  if (len > in.size() - *offset) return false;  // *offset + len may wrap
  *v = BigUint::from_bytes_be(in.subspan(*offset, len));
  *offset += len;
  return true;
}

// Hash arbitrary group elements into a 256-bit challenge integer.
BigUint challenge_hash(std::initializer_list<const BigUint*> elems) {
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

// The proof nonce r is this many bytes: |n| + 512 bits, rounded up, so
// z = s_i*c + r hides s_i statistically.
std::size_t nonce_bytes(const BigUint& n) {
  return (n.bit_length() + 512 + 7) / 8;
}

// x^exp mod n where exp may be negative (uses inverse; requires gcd(x,n)=1).
std::optional<BigUint> powmod_signed(const MontgomeryCtx& mont, const BigUint& x,
                                     const BigInt& exp) {
  if (!exp.negative()) return mont.powmod(x, exp.magnitude());
  BigUint inv;
  if (!BigUint::modinv(x, mont.modulus(), &inv)) return std::nullopt;
  return mont.powmod(inv, exp.magnitude());
}

}  // namespace

// ---------------------------------------------------------------------------
// ThresholdRsaContext

ThresholdRsaContext::ThresholdRsaContext(const ThresholdRsaPublic& pub)
    : pub_(&pub),
      mont_(pub.rsa.n),
      delta_(factorial_big(pub.players)),
      e_prime_((delta_ * delta_) << 2),
      bezout_(extended_gcd(e_prime_, pub.rsa.e)),
      v_table_(mont_.fixed_base_table(pub.v, 8 * nonce_bytes(pub.rsa.n) + 1)) {
  verification_key_inverses_.reserve(pub.verification_keys.size());
  for (const BigUint& v_i : pub.verification_keys) {
    BigUint inv;
    auto& slot = verification_key_inverses_.emplace_back();
    if (BigUint::modinv(v_i, pub.rsa.n, &inv)) slot = std::move(inv);
  }
}

const BigUint* ThresholdRsaContext::verification_key_inverse(
    std::size_t index) const {
  const auto& inv = verification_key_inverses_.at(index - 1);
  return inv ? &*inv : nullptr;
}

BigUint factorial_big(std::size_t l) {
  BigUint out(1);
  for (std::size_t i = 2; i <= l; ++i) out = out * BigUint(i);
  return out;
}

Bytes ThresholdPartial::encode() const {
  Bytes out;
  put_varint(out, signer_index);
  put_biguint(out, value);
  put_biguint(out, proof_c);
  put_biguint(out, proof_z);
  return out;
}

std::optional<ThresholdPartial> ThresholdPartial::decode(BytesView bytes) {
  ThresholdPartial p;
  std::size_t offset = 0;
  std::uint64_t idx = 0;
  if (!get_varint(bytes, &offset, &idx)) return std::nullopt;
  p.signer_index = static_cast<std::size_t>(idx);
  if (!get_biguint(bytes, &offset, &p.value)) return std::nullopt;
  if (!get_biguint(bytes, &offset, &p.proof_c)) return std::nullopt;
  if (!get_biguint(bytes, &offset, &p.proof_z)) return std::nullopt;
  if (offset != bytes.size()) return std::nullopt;
  return p;
}

ThresholdRsaKey threshold_rsa_generate(Rng& rng, std::size_t bits,
                                       std::size_t players,
                                       std::size_t threshold) {
  HERMES_REQUIRE(players >= threshold && threshold >= 1);
  HERMES_REQUIRE(bits >= 128);
  // Two distinct safe primes p = 2p' + 1 and q = 2q' + 1; a repeated prime
  // is drawn again.
  BigUint p;
  BigUint q;
  do {
    p = random_safe_prime(rng, bits / 2);
    q = random_safe_prime(rng, bits - bits / 2);
  } while (p == q);
  const RsaPublicKey rsa{p * q, BigUint(65537)};
  const BigUint m = ((p - BigUint(1)) >> 1) * ((q - BigUint(1)) >> 1);

  BigUint d;
  const bool inv_ok = BigUint::modinv(rsa.e, m, &d);
  HERMES_REQUIRE(inv_ok);  // e = 65537 is prime and far below p', q'

  // Random polynomial f over Z_m with f(0) = d.
  std::vector<BigUint> coeffs;
  coeffs.reserve(threshold);
  coeffs.push_back(d);
  for (std::size_t i = 1; i < threshold; ++i) {
    coeffs.push_back(BigUint::random_below(rng, m));
  }

  ThresholdRsaKey key;
  key.pub.rsa = rsa;
  key.pub.players = players;
  key.pub.threshold = threshold;

  // v must generate the squares subgroup; a random square does w.h.p.
  const BigUint r = BigUint::random_below(rng, rsa.n);
  key.pub.v = BigUint::mulmod(r, r, rsa.n);

  key.shares.reserve(players);
  key.pub.verification_keys.reserve(players);
  for (std::size_t i = 1; i <= players; ++i) {
    // Horner evaluation of f(i) mod m.
    BigUint s;
    const BigUint xi(i);
    for (std::size_t c = coeffs.size(); c-- > 0;) {
      s = (BigUint::mulmod(s, xi, m) + coeffs[c]) % m;
    }
    key.shares.push_back(ThresholdRsaShare{i, s});
    key.pub.verification_keys.push_back(
        BigUint::powmod(key.pub.v, s, rsa.n));
  }
  return key;
}

ThresholdPartial threshold_partial_sign(const ThresholdRsaContext& ctx,
                                        const ThresholdRsaShare& share,
                                        BytesView message) {
  const ThresholdRsaPublic& pub = ctx.pub();
  const MontgomeryCtx& mont = ctx.mont();
  const BigUint& n = pub.rsa.n;
  const BigUint x = fdh_encode(message, n);

  // Deterministic nonce: PRF(share, message) stretched past |n| + 512 bits,
  // so repeated signing never leaks the share through nonce reuse.
  Bytes prf_key = share.s.to_bytes_be();
  put_varint(prf_key, share.index);
  Bytes nonce_material;
  std::uint32_t ctr = 0;
  const std::size_t r_bytes = nonce_bytes(n);
  while (nonce_material.size() < r_bytes) {
    Bytes block(message.begin(), message.end());
    put_u32_be(block, ctr++);
    const Digest dg = hmac_sha256(prf_key, block);
    nonce_material.insert(nonce_material.end(), dg.begin(), dg.end());
  }
  nonce_material.resize(r_bytes);
  const BigUint r = BigUint::from_bytes_be(nonce_material);
  const BigUint two_r = r << 1;

  // Both long exponentiations of x share one base, y = x^{2*Delta}:
  // x_i = x^{2*Delta*s_i} = y^{s_i}, and with x~ = x^{4*Delta} = y^2 the
  // commitment x~^r = y^{2r}. One table of y's powers serves both.
  const BigUint y = mont.powmod(x, ctx.delta() << 1);
  const MontgomeryCtx::FixedBaseTable y_table = mont.fixed_base_table(
      y, std::max(share.s.bit_length(), two_r.bit_length()));
  ThresholdPartial partial;
  partial.signer_index = share.index;
  partial.value = mont.powmod(y_table, share.s);

  // Fiat-Shamir proof of log_v(v_i) == log_{x~}(x_i^2).
  const BigUint x_tilde = mont.mulmod(y, y);
  const BigUint x_i_sq = mont.mulmod(partial.value, partial.value);
  const BigUint& v_i = pub.verification_keys[share.index - 1];
  const BigUint v_r = mont.powmod(ctx.v_table(), r);
  const BigUint x_r = mont.powmod(y_table, two_r);
  partial.proof_c =
      challenge_hash({&pub.v, &x_tilde, &v_i, &x_i_sq, &v_r, &x_r});
  partial.proof_z = share.s * partial.proof_c + r;
  return partial;
}

namespace {

// Single-partial proof check against precomputed Fiat-Shamir bases.
bool verify_partial_with_bases(const ThresholdRsaContext& ctx,
                               const BigUint& x_tilde,
                               const ThresholdPartial& partial) {
  const ThresholdRsaPublic& pub = ctx.pub();
  const MontgomeryCtx& mont = ctx.mont();
  const BigUint& n = pub.rsa.n;
  if (partial.signer_index < 1 || partial.signer_index > pub.players) {
    return false;
  }
  if (partial.value.is_zero() || partial.value >= n) return false;
  const BigUint x_i_sq = mont.mulmod(partial.value, partial.value);
  const BigUint& v_i = pub.verification_keys[partial.signer_index - 1];

  // Recover the commitments: v' = v^z * v_i^{-c}, x' = x~^z * (x_i^2)^{-c}.
  const BigUint* v_i_inv = ctx.verification_key_inverse(partial.signer_index);
  if (v_i_inv == nullptr) return false;
  BigUint x_sq_inv;
  if (!BigUint::modinv(x_i_sq, n, &x_sq_inv)) return false;
  const BigUint v_prime =
      mont.mulmod(mont.powmod(ctx.v_table(), partial.proof_z),
                  mont.powmod(*v_i_inv, partial.proof_c));
  const BigUint x_prime = mont.mulmod(mont.powmod(x_tilde, partial.proof_z),
                                      mont.powmod(x_sq_inv, partial.proof_c));
  const BigUint expected =
      challenge_hash({&pub.v, &x_tilde, &v_i, &x_i_sq, &v_prime, &x_prime});
  return expected == partial.proof_c;
}

}  // namespace

bool threshold_verify_partial(const ThresholdRsaContext& ctx, BytesView message,
                              const ThresholdPartial& partial) {
  const BigUint x = fdh_encode(message, ctx.pub().rsa.n);
  const BigUint x_tilde = ctx.mont().powmod(x, ctx.delta() << 2);
  return verify_partial_with_bases(ctx, x_tilde, partial);
}

std::vector<std::uint8_t> threshold_verify_partials(
    const ThresholdRsaContext& ctx, BytesView message,
    std::span<const ThresholdPartial> partials) {
  std::vector<std::uint8_t> out(partials.size(), 0);
  if (partials.empty()) return out;
  // One FDH encode and one x^{4*Delta} for the whole round's partials.
  const BigUint x = fdh_encode(message, ctx.pub().rsa.n);
  const BigUint x_tilde = ctx.mont().powmod(x, ctx.delta() << 2);
  for (std::size_t i = 0; i < partials.size(); ++i) {
    out[i] = verify_partial_with_bases(ctx, x_tilde, partials[i]) ? 1 : 0;
  }
  return out;
}

std::optional<Bytes> threshold_combine(const ThresholdRsaContext& ctx,
                                       BytesView message,
                                       std::span<const ThresholdPartial> partials) {
  const ThresholdRsaPublic& pub = ctx.pub();
  if (partials.size() < pub.threshold) return std::nullopt;
  // Use the first `threshold` distinct indices.
  std::vector<const ThresholdPartial*> subset;
  for (const auto& p : partials) {
    if (p.signer_index < 1 || p.signer_index > pub.players) continue;
    const bool dup = std::any_of(subset.begin(), subset.end(), [&](auto* q) {
      return q->signer_index == p.signer_index;
    });
    if (!dup) subset.push_back(&p);
    if (subset.size() == pub.threshold) break;
  }
  if (subset.size() < pub.threshold) return std::nullopt;

  const MontgomeryCtx& mont = ctx.mont();
  const BigUint& n = pub.rsa.n;
  const BigUint x = fdh_encode(message, n);

  // w = prod x_i^{2 * lambda'_i}, lambda'_i = Delta * prod_{j!=i} (0-j)/(i-j)
  // over the subset's indices. Integer products do not depend on the order
  // the partials arrived in, so any permutation of a subset gives the same
  // coefficients.
  const BigInt delta = BigInt::from_biguint(ctx.delta());
  BigUint w(1);
  for (const ThresholdPartial* pi : subset) {
    const BigInt i(static_cast<std::int64_t>(pi->signer_index));
    BigInt num = 1;
    BigInt den = 1;
    for (const ThresholdPartial* pj : subset) {
      if (pj == pi) continue;
      const BigInt j(static_cast<std::int64_t>(pj->signer_index));
      num = num * (-j);
      den = den * (i - j);
    }
    // Delta * num / den is an integer (den divides Delta * num).
    const BigInt lambda = (delta * num) / den;
    HERMES_DCHECK((delta * num) % den == BigInt(0));
    const auto term = powmod_signed(mont, pi->value, lambda + lambda);
    if (!term) return std::nullopt;
    w = mont.mulmod(w, *term);
  }

  // e' = 4 * Delta^2; a, b with a*e' + b*e = 1 (cached), y = w^a * x^b.
  const ExtendedGcd& eg = ctx.bezout();
  if (eg.g != BigUint(1)) return std::nullopt;
  const auto wa = powmod_signed(mont, w, eg.x);
  const auto xb = powmod_signed(mont, x, eg.y);
  if (!wa || !xb) return std::nullopt;
  const BigUint y = mont.mulmod(*wa, *xb);

  Bytes sig = y.to_bytes_be_padded(pub.rsa.modulus_bytes());
  if (!threshold_verify(ctx, message, sig)) return std::nullopt;
  return sig;
}

bool threshold_verify(const ThresholdRsaContext& ctx, BytesView message,
                      BytesView signature) {
  return rsa_verify(ctx.pub().rsa, message, signature, ctx.mont());
}

}  // namespace hermes::crypto
