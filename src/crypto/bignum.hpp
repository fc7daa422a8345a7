// Arbitrary-precision arithmetic, implemented from scratch for the
// threshold-signature substrate (no external bignum dependency).
//
// BigUint is an unsigned magnitude over 64-bit limbs (little-endian limb
// order, 128-bit intermediates) held in a small-size-optimized buffer:
// operands up to 2048 bits — the common RSA working size — live inline with
// no heap traffic, larger values spill to the heap. BigInt adds a sign for
// the extended Euclid / Lagrange-over-the-integers computations used by
// Shoup threshold RSA, where coefficients can be negative.
//
// Kernels are sized for the RSA hot path:
//   - multiplication: schoolbook, with a dedicated squaring kernel
//     (cross-term sum, one doubling pass, then the diagonal) inside the
//     Montgomery products;
//   - division: Knuth Algorithm D with 128/64-bit trial quotients;
//   - modular exponentiation (odd moduli only): Montgomery CIOS with a
//     sliding odd-power window (w = 3..5), plain square-and-multiply for
//     short exponents, and a fixed-base table for bases reused across
//     calls, via the reusable MontgomeryCtx below, whose calls keep their
//     scratch on the stack up to the same 2048-bit bound;
//   - primality: the safe-prime sieve divides by the odd primes below
//     kSieveBound, one pass over the limbs per 64-bit product of them, and
//     Miller-Rabin runs on the numbers it clears.
//
// The frozen pre-rewrite kernels (32-bit schoolbook + binary division +
// bit-at-a-time CIOS) live in crypto/bignum_reference.hpp; the differential
// property suite pins this implementation against them bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace hermes::crypto {

struct BigUintDivMod;
class MontgomeryCtx;

// 64-bit limbs with 128-bit products; the toolchain (gcc/clang on x86-64)
// provides __int128.
using Limb = std::uint64_t;
using DLimb = unsigned __int128;

// Small-size-optimized limb storage: values up to kInlineLimbs live in the
// object itself, larger ones move to a heap block (cf. the libttak SSO
// bigint pattern). The buffer never shrinks its heap block; BigUint values
// are trimmed logically via size_.
class LimbBuf {
 public:
  // 2048-bit operands inline: every RSA-2048 residue, exponent and modulus
  // stays heap-free; only double-width products spill.
  static constexpr std::size_t kInlineLimbs = 32;

  LimbBuf() = default;
  LimbBuf(const LimbBuf& o) { *this = o; }
  LimbBuf(LimbBuf&& o) noexcept { *this = std::move(o); }
  LimbBuf& operator=(const LimbBuf& o);
  LimbBuf& operator=(LimbBuf&& o) noexcept;
  ~LimbBuf() = default;  // unique_ptr owns the heap block

  Limb* data() { return heap_ ? heap_.get() : inline_; }
  const Limb* data() const { return heap_ ? heap_.get() : inline_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Limb& operator[](std::size_t i) { return data()[i]; }
  Limb operator[](std::size_t i) const { return data()[i]; }
  Limb& back() { return data()[size_ - 1]; }
  Limb back() const { return data()[size_ - 1]; }

  Limb* begin() { return data(); }
  Limb* end() { return data() + size_; }
  const Limb* begin() const { return data(); }
  const Limb* end() const { return data() + size_; }

  // Grows zero-filled (vector semantics); shrinking just drops the tail.
  void resize(std::size_t n);
  void assign(std::size_t n, Limb v);
  void push_back(Limb v);
  void pop_back() { --size_; }
  void clear() { size_ = 0; }

 private:
  void grow(std::size_t need);

  std::size_t size_ = 0;
  std::size_t cap_ = kInlineLimbs;
  std::unique_ptr<Limb[]> heap_;
  Limb inline_[kInlineLimbs];
};

class BigUint {
 public:
  BigUint();  // zero (defined out-of-line so `const BigUint x;` is valid)
  explicit BigUint(std::uint64_t v);

  static BigUint from_hex(std::string_view hex);
  static BigUint from_bytes_be(BytesView bytes);
  // Little-endian limb array (trailing zero limbs allowed).
  static BigUint from_limbs(std::span<const Limb> limbs);
  // Uniform in [0, bound). bound must be > 0.
  static BigUint random_below(Rng& rng, const BigUint& bound);
  // Random integer with exactly `bits` bits (top bit set).
  static BigUint random_bits(Rng& rng, std::size_t bits);

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;
  std::uint64_t to_u64() const;  // truncating
  std::string to_hex() const;
  Bytes to_bytes_be() const;
  // Fixed-width big-endian encoding, zero-padded to `width` bytes.
  Bytes to_bytes_be_padded(std::size_t width) const;

  std::size_t limb_count() const { return limbs_.size(); }
  Limb limb(std::size_t i) const { return i < limbs_.size() ? limbs_[i] : 0; }

  // Comparison: -1, 0, +1.
  static int compare(const BigUint& a, const BigUint& b);
  bool operator==(const BigUint& o) const { return compare(*this, o) == 0; }
  bool operator!=(const BigUint& o) const { return compare(*this, o) != 0; }
  bool operator<(const BigUint& o) const { return compare(*this, o) < 0; }
  bool operator<=(const BigUint& o) const { return compare(*this, o) <= 0; }
  bool operator>(const BigUint& o) const { return compare(*this, o) > 0; }
  bool operator>=(const BigUint& o) const { return compare(*this, o) >= 0; }

  BigUint operator+(const BigUint& o) const;
  // Requires *this >= o.
  BigUint operator-(const BigUint& o) const;
  BigUint operator*(const BigUint& o) const;
  BigUint operator<<(std::size_t bits) const;
  BigUint operator>>(std::size_t bits) const;

  // Quotient and remainder; divisor must be non-zero.
  static BigUintDivMod divmod(const BigUint& a, const BigUint& b);
  BigUint operator/(const BigUint& o) const;
  BigUint operator%(const BigUint& o) const;

  static BigUint mulmod(const BigUint& a, const BigUint& b, const BigUint& m);
  // Modular exponentiation through a one-off MontgomeryCtx. m must be odd,
  // as every RSA modulus is.
  static BigUint powmod(const BigUint& base, const BigUint& exp, const BigUint& m);
  static BigUint gcd(BigUint a, BigUint b);
  // Multiplicative inverse of a mod m; returns false if gcd(a, m) != 1.
  static bool modinv(const BigUint& a, const BigUint& m, BigUint* out);

  // Miller-Rabin with `rounds` bases drawn from `witnesses`. It does no
  // trial division: key generation runs it on numbers the safe-prime sieve
  // cleared, and passes witness_stream(n), which makes the verdict a
  // function of n alone.
  static bool is_probable_prime(const BigUint& n, Rng& witnesses,
                                int rounds = 24);
  // Miller-Rabin bases for n: an Rng seeded by the first eight bytes of
  // SHA-256 over n's big-endian bytes.
  static Rng witness_stream(const BigUint& n);

 private:
  friend class MontgomeryCtx;
  void trim();
  // Little-endian 64-bit limbs; empty buffer represents zero.
  LimbBuf limbs_;
};

struct BigUintDivMod {
  BigUint quotient;
  BigUint remainder;
};

// The safe-prime sieve tests every odd prime below this bound (1,899
// primes). Of the bounds 251 to 65536 that BM_SafePrime/512 timed, 4096 and
// 16384 were the fastest, within noise of each other; 16384 makes 23% fewer
// Miller-Rabin calls. No prime found depends on it.
inline constexpr std::uint32_t kSieveBound = 16384;

// Combined sieve for safe primes (Wiener, "Safe Prime Generation with a
// Combined Sieve", IACR ePrint 2003/186), for odd q: true when an odd prime
// p < kSieveBound divides q or 2q + 1 and is not that number itself. p
// divides 2q + 1 exactly when q = (p - 1)/2 (mod p), so one residue of q
// per table prime answers both.
bool safe_prime_sieve_rejects(const BigUint& q);

inline BigUint BigUint::operator/(const BigUint& o) const {
  return divmod(*this, o).quotient;
}
inline BigUint BigUint::operator%(const BigUint& o) const {
  return divmod(*this, o).remainder;
}

// Reusable Montgomery (CIOS) context for a fixed odd modulus. Building one
// costs a single division (R^2 mod n); every subsequent mulmod/powmod on
// that modulus is division-free. Hot callers — threshold-RSA signing,
// proof verification, Lagrange combination, RSA-FDH — construct the context
// once per key and reuse it across rounds; MontgomeryCtx itself is
// immutable after construction and safe to share across threads.
class MontgomeryCtx {
 public:
  explicit MontgomeryCtx(const BigUint& n);  // n must be odd and non-zero

  const BigUint& modulus() const { return n_; }
  std::size_t limb_count() const { return k_; }

  // a * b mod n through two CIOS passes (no division). Inputs need not be
  // reduced mod n as long as they fit in k limbs; pass reduced values.
  BigUint mulmod(const BigUint& a, const BigUint& b) const;

  // base^exp mod n. Below kShortExpBits exponent bits: square-and-multiply
  // with no table. Otherwise a sliding window over odd powers (w = 3 below
  // 160 exponent bits, 4 below 768, 5 at or above). base need not be
  // reduced.
  static constexpr std::size_t kShortExpBits = 24;
  BigUint powmod(const BigUint& base, const BigUint& exp) const;

  // Fixed-base table (Brickell, Gordon, McCurley and Wilson, EUROCRYPT '92):
  // g^(2^(6j)) in Montgomery form for every 6-bit digit position j of an
  // exponent of up to max_bits() bits. Building it costs one squaring per
  // exponent bit; each powmod on it then runs Yao's method, about
  // ceil(bits/6) + 63 products against the window's ~1.2 products per bit.
  // It pays off from the second exponentiation of the same base.
  static constexpr std::size_t kFixedBaseDigitBits = 6;
  class FixedBaseTable {
   public:
    std::size_t max_bits() const { return digits_ * kFixedBaseDigitBits; }

   private:
    friend class MontgomeryCtx;
    BigUint base_;              // as powmod(base, exp) reduces it
    std::vector<Limb> powers_;  // digits_ entries of k limbs
    std::size_t digits_ = 0;
  };

  // Table for `base` covering every exponent of up to `max_bits` bits
  // (max_bits() rounds up to whole digits).
  FixedBaseTable fixed_base_table(const BigUint& base,
                                  std::size_t max_bits) const;

  // base^exp mod n from the table, byte-identical to powmod(base, exp). An
  // exponent longer than table.max_bits() takes the windowed path.
  BigUint powmod(const FixedBaseTable& table, const BigUint& exp) const;

 private:
  friend class BigUint;
  // Raw k-limb Montgomery-form kernels (out may not alias inputs).
  void mont_mul(const Limb* a, const Limb* b, Limb* out, Limb* scratch) const;
  void to_mont(const BigUint& x, Limb* out, Limb* scratch) const;
  BigUint from_mont(const Limb* x, Limb* scratch) const;

  BigUint n_;
  std::vector<Limb> r2_;  // R^2 mod n, R = 2^(64*k), zero-padded to k limbs
  std::size_t k_ = 0;
  Limb n_prime_ = 0;  // -n^{-1} mod 2^64
};

// Signed integer built on BigUint magnitude.
class BigInt {
 public:
  BigInt();  // zero
  BigInt(std::int64_t v);  // NOLINT(google-explicit-constructor): numeric literal convenience
  explicit BigInt(BigUint mag, bool negative = false);

  static BigInt from_biguint(const BigUint& u) { return BigInt(u, false); }

  bool is_zero() const { return mag_.is_zero(); }
  bool negative() const { return neg_; }
  const BigUint& magnitude() const { return mag_; }

  BigInt operator-() const;
  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  // Truncated division (C semantics).
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;

  bool operator==(const BigInt& o) const;
  std::string to_string_hex() const;

  // Canonical representative of *this mod m, in [0, m).
  BigUint mod_positive(const BigUint& m) const;

 private:
  void normalize();
  BigUint mag_;
  bool neg_ = false;
};

// Extended Euclid: returns g = gcd(a, b) and x, y with a*x + b*y = g.
struct ExtendedGcd {
  BigUint g;
  BigInt x;
  BigInt y;
};
ExtendedGcd extended_gcd(const BigUint& a, const BigUint& b);

}  // namespace hermes::crypto
