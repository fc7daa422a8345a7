#include "crypto/bignum.hpp"

#include <algorithm>
#include <bit>

#include "crypto/sha256.hpp"
#include "support/assert.hpp"

namespace hermes::crypto {

// ---------------------------------------------------------------------------
// LimbBuf

LimbBuf& LimbBuf::operator=(const LimbBuf& o) {
  if (this == &o) return *this;
  if (o.size_ > cap_) {
    heap_ = std::make_unique<Limb[]>(o.size_);
    cap_ = o.size_;
  }
  size_ = o.size_;
  std::copy(o.data(), o.data() + size_, data());
  return *this;
}

LimbBuf& LimbBuf::operator=(LimbBuf&& o) noexcept {
  if (this == &o) return *this;
  if (o.heap_) {
    heap_ = std::move(o.heap_);
    cap_ = o.cap_;
    size_ = o.size_;
  } else {
    heap_.reset();
    cap_ = kInlineLimbs;
    size_ = o.size_;
    std::copy(o.inline_, o.inline_ + o.size_, inline_);
  }
  o.size_ = 0;
  o.cap_ = kInlineLimbs;
  return *this;
}

void LimbBuf::grow(std::size_t need) {
  std::size_t new_cap = cap_;
  while (new_cap < need) new_cap *= 2;
  auto block = std::make_unique<Limb[]>(new_cap);
  std::copy(data(), data() + size_, block.get());
  heap_ = std::move(block);
  cap_ = new_cap;
}

void LimbBuf::resize(std::size_t n) {
  if (n > cap_) grow(n);
  if (n > size_) std::fill(data() + size_, data() + n, Limb{0});
  size_ = n;
}

void LimbBuf::assign(std::size_t n, Limb v) {
  if (n > cap_) grow(n);
  size_ = n;
  std::fill(data(), data() + n, v);
}

void LimbBuf::push_back(Limb v) {
  if (size_ == cap_) grow(size_ + 1);
  data()[size_++] = v;
}

// ---------------------------------------------------------------------------
// Raw limb-span kernels (little-endian, lengths in limbs)

namespace {

constexpr std::size_t kSsoLimbs = LimbBuf::kInlineLimbs;

// Zeroed limb scratch for one call: inline while n <= N, where each caller
// sizes N for operands at the SSO bound (kSsoLimbs), one heap block above it.
template <std::size_t N>
class ScratchLimbs {
 public:
  explicit ScratchLimbs(std::size_t n) {
    if (n > N) {
      heap_ = std::make_unique<Limb[]>(n);
      data_ = heap_.get();
    } else {
      std::fill(inline_, inline_ + n, Limb{0});
    }
  }
  ScratchLimbs(const ScratchLimbs&) = delete;
  ScratchLimbs& operator=(const ScratchLimbs&) = delete;

  Limb* data() { return data_; }

 private:
  Limb inline_[N];
  std::unique_ptr<Limb[]> heap_;
  Limb* data_ = inline_;
};

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HERMES_BIGNUM_ADX 1

// True once at startup if the CPU has MULX (BMI2) and ADCX/ADOX (ADX).
bool have_addmul_adx() {
  static const bool v =
      __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
  return v;
}

// r[0 .. n) += y * x[0 .. n); returns the carry limb. The mpn addmul_1
// idiom: MULX leaves flags alone, so the product-high handoff (CF via ADCX)
// and the r[] accumulation (OF via ADOX) run as two independent flag chains
// inside each 4-limb block. Both chains fold into `carry` at block end,
// leaving flags dead across the C loop control. Bit-exact with the portable
// schoolbook row, just faster.
__attribute__((target("bmi2,adx"))) Limb addmul_1_adx(Limb* __restrict r,
                                                      const Limb* __restrict x,
                                                      std::size_t n, Limb y) {
  Limb carry = 0;
  std::size_t blocks = n / 4;
  if (blocks) {
    Limb t0, t1;
    do {
      __asm__(
          "xorl %k[t0], %k[t0]\n\t"  // CF = OF = 0
          "mulxq (%[x]), %[t0], %[t1]\n\t"
          "adcxq %[carry], %[t0]\n\t"
          "adoxq (%[r]), %[t0]\n\t"
          "movq %[t0], (%[r])\n\t"
          "mulxq 8(%[x]), %[t0], %[carry]\n\t"
          "adcxq %[t1], %[t0]\n\t"
          "adoxq 8(%[r]), %[t0]\n\t"
          "movq %[t0], 8(%[r])\n\t"
          "mulxq 16(%[x]), %[t0], %[t1]\n\t"
          "adcxq %[carry], %[t0]\n\t"
          "adoxq 16(%[r]), %[t0]\n\t"
          "movq %[t0], 16(%[r])\n\t"
          "mulxq 24(%[x]), %[t0], %[carry]\n\t"
          "adcxq %[t1], %[t0]\n\t"
          "adoxq 24(%[r]), %[t0]\n\t"
          "movq %[t0], 24(%[r])\n\t"
          "movl $0, %k[t0]\n\t"  // zero without touching flags
          "adcxq %[t0], %[carry]\n\t"
          "adoxq %[t0], %[carry]\n\t"
          : [carry] "+&r"(carry), [t0] "=&r"(t0), [t1] "=&r"(t1)
          : [r] "r"(r), [x] "r"(x), "d"(y)
          : "cc", "memory");
      r += 4;
      x += 4;
    } while (--blocks);
  }
  DLimb c = carry;
  for (std::size_t j = 0; j < n % 4; ++j) {
    const DLimb cur =
        r[j] + static_cast<DLimb>(y) * x[j] + static_cast<Limb>(c);
    r[j] = static_cast<Limb>(cur);
    c = cur >> 64;
  }
  return static_cast<Limb>(c);
}
#endif  // x86-64

// r[0 .. an+bn) = a * b. r must be zero-initialized; an, bn >= 1.
void mul_basecase(const Limb* __restrict a, std::size_t an,
                  const Limb* __restrict b, std::size_t bn,
                  Limb* __restrict r) {
#ifdef HERMES_BIGNUM_ADX
  if (have_addmul_adx()) {
    for (std::size_t i = 0; i < an; ++i) {
      r[i + bn] = addmul_1_adx(r + i, b, bn, a[i]);
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < an; ++i) {
    DLimb carry = 0;
    const DLimb ai = a[i];
    for (std::size_t j = 0; j < bn; ++j) {
      const DLimb cur = r[i + j] + ai * b[j] + carry;
      r[i + j] = static_cast<Limb>(cur);
      carry = cur >> 64;
    }
    r[i + bn] = static_cast<Limb>(carry);
  }
}

// r[0 .. 2n) = a^2. r must be zero-initialized. Computes the cross-term
// triangle once, doubles it with a single shift pass, then adds the
// diagonal — ~half the limb products of mul_basecase(a, a).
void sqr_basecase(const Limb* __restrict a, std::size_t n, Limb* __restrict r) {
#ifdef HERMES_BIGNUM_ADX
  if (have_addmul_adx()) {
    // Row i of the triangle: r[2i+1 ..] += a[i] * a[i+1 .. n).
    for (std::size_t i = 0; i + 1 < n; ++i) {
      r[i + n] = addmul_1_adx(r + 2 * i + 1, a + i + 1, n - i - 1, a[i]);
    }
  } else
#endif
  for (std::size_t i = 0; i + 1 < n; ++i) {
    DLimb carry = 0;
    const DLimb ai = a[i];
#pragma GCC unroll 8
    for (std::size_t j = i + 1; j < n; ++j) {
      const DLimb cur = r[i + j] + ai * a[j] + carry;
      r[i + j] = static_cast<Limb>(cur);
      carry = cur >> 64;
    }
    r[i + n] = static_cast<Limb>(carry);
  }
  // Double the triangle and add the diagonal a[i]^2 in one fused pass
  // (limb pair 2i, 2i+1 per step) instead of a shift pass plus an add pass.
  Limb shifted_out = 0;
  DLimb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb lo = r[2 * i];
    const Limb hi = r[2 * i + 1];
    const Limb d0 = (lo << 1) | shifted_out;
    const Limb d1 = (hi << 1) | (lo >> 63);
    shifted_out = hi >> 63;
    const DLimb sq = static_cast<DLimb>(a[i]) * a[i];
    const DLimb cur = static_cast<DLimb>(d0) + static_cast<Limb>(sq) +
                      static_cast<Limb>(carry);
    r[2 * i] = static_cast<Limb>(cur);
    const DLimb cur2 = static_cast<DLimb>(d1) + static_cast<Limb>(sq >> 64) +
                       static_cast<Limb>(cur >> 64);
    r[2 * i + 1] = static_cast<Limb>(cur2);
    carry = cur2 >> 64;
  }
  HERMES_DCHECK(carry == 0 && shifted_out == 0);
}

// c[0 .. max(an,bn)+1) = a + b; returns the used length.
std::size_t add_limbs(const Limb* a, std::size_t an, const Limb* b,
                      std::size_t bn, Limb* c) {
  const std::size_t n = std::max(an, bn);
  DLimb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    DLimb sum = carry;
    if (i < an) sum += a[i];
    if (i < bn) sum += b[i];
    c[i] = static_cast<Limb>(sum);
    carry = sum >> 64;
  }
  if (carry) {
    c[n] = static_cast<Limb>(carry);
    return n + 1;
  }
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// BigUint

BigUint::BigUint() = default;

BigUint::BigUint(std::uint64_t v) {
  if (v == 0) return;
  limbs_.push_back(v);
}

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_hex(std::string_view hex) {
  BigUint out;
  if (hex.empty()) return out;
  out.limbs_.resize((hex.size() + 15) / 16);
  std::size_t limb = 0, shift = 0;
  for (std::size_t i = hex.size(); i-- > 0;) {
    const char c = hex[i];
    Limb nib;
    if (c >= '0' && c <= '9') nib = static_cast<Limb>(c - '0');
    else if (c >= 'a' && c <= 'f') nib = static_cast<Limb>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') nib = static_cast<Limb>(c - 'A' + 10);
    else { HERMES_REQUIRE(false && "invalid hex"); return out; }
    out.limbs_[limb] |= nib << shift;
    shift += 4;
    if (shift == 64) {
      shift = 0;
      ++limb;
    }
  }
  out.trim();
  return out;
}

BigUint BigUint::from_bytes_be(BytesView bytes) {
  BigUint out;
  if (bytes.empty()) return out;
  out.limbs_.resize((bytes.size() + 7) / 8);
  std::size_t limb = 0, shift = 0;
  for (std::size_t i = bytes.size(); i-- > 0;) {
    out.limbs_[limb] |= static_cast<Limb>(bytes[i]) << shift;
    shift += 8;
    if (shift == 64) {
      shift = 0;
      ++limb;
    }
  }
  out.trim();
  return out;
}

BigUint BigUint::from_limbs(std::span<const Limb> limbs) {
  BigUint out;
  out.limbs_.resize(limbs.size());
  std::copy(limbs.begin(), limbs.end(), out.limbs_.begin());
  out.trim();
  return out;
}

BigUint BigUint::random_bits(Rng& rng, std::size_t bits) {
  HERMES_REQUIRE(bits > 0);
  BigUint out;
  const std::size_t nlimbs = (bits + 63) / 64;
  out.limbs_.resize(nlimbs);
  for (auto& l : out.limbs_) l = rng.next_u64();
  // Mask excess bits, then set the top bit so the width is exact.
  const std::size_t top_bits = bits % 64 == 0 ? 64 : bits % 64;
  if (top_bits < 64) {
    out.limbs_.back() &= (Limb{1} << top_bits) - 1;
  }
  out.limbs_.back() |= Limb{1} << (top_bits - 1);
  out.trim();
  return out;
}

BigUint BigUint::random_below(Rng& rng, const BigUint& bound) {
  HERMES_REQUIRE(!bound.is_zero());
  const std::size_t bits = bound.bit_length();
  const std::size_t nlimbs = (bits + 63) / 64;
  const std::size_t top_bits = bits % 64 == 0 ? 64 : bits % 64;
  for (;;) {
    BigUint out;
    out.limbs_.resize(nlimbs);
    for (auto& l : out.limbs_) l = rng.next_u64();
    if (top_bits < 64) out.limbs_.back() &= (Limb{1} << top_bits) - 1;
    out.trim();
    if (out < bound) return out;
  }
}

std::size_t BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  return limbs_.size() * 64 -
         static_cast<std::size_t>(std::countl_zero(limbs_.back()));
}

bool BigUint::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::uint64_t BigUint::to_u64() const {
  return limbs_.empty() ? 0 : limbs_[0];
}

std::string BigUint::to_hex() const {
  if (limbs_.empty()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(digits[(limbs_[i] >> shift) & 0xf]);
    }
  }
  const std::size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

Bytes BigUint::to_bytes_be() const {
  if (limbs_.empty()) return {0};
  Bytes out;
  out.reserve(limbs_.size() * 8);
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 56; shift >= 0; shift -= 8) {
      out.push_back(static_cast<std::uint8_t>(limbs_[i] >> shift));
    }
  }
  const auto first = std::find_if(out.begin(), out.end(),
                                  [](std::uint8_t b) { return b != 0; });
  if (first == out.end()) return {0};
  return Bytes(first, out.end());
}

Bytes BigUint::to_bytes_be_padded(std::size_t width) const {
  Bytes raw = to_bytes_be();
  if (raw.size() == 1 && raw[0] == 0) raw.clear();
  HERMES_REQUIRE(raw.size() <= width);
  Bytes out(width - raw.size(), 0);
  append(out, raw);
  return out;
}

int BigUint::compare(const BigUint& a, const BigUint& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint BigUint::operator+(const BigUint& o) const {
  BigUint out;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.resize(n + 1);
  out.limbs_.resize(add_limbs(limbs_.data(), limbs_.size(), o.limbs_.data(),
                              o.limbs_.size(), out.limbs_.data()));
  return out;
}

BigUint BigUint::operator-(const BigUint& o) const {
  HERMES_REQUIRE(*this >= o);
  BigUint out;
  out.limbs_.resize(limbs_.size());
  Limb borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const Limb ai = limbs_[i];
    const Limb bi = i < o.limbs_.size() ? o.limbs_[i] : 0;
    const Limb d = ai - bi;
    Limb next = ai < bi ? 1 : 0;
    const Limb d2 = d - borrow;
    if (d < borrow) next = 1;
    out.limbs_[i] = d2;
    borrow = next;
  }
  HERMES_REQUIRE(borrow == 0);
  out.trim();
  return out;
}

BigUint BigUint::operator*(const BigUint& o) const {
  if (is_zero() || o.is_zero()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  mul_basecase(limbs_.data(), limbs_.size(), o.limbs_.data(), o.limbs_.size(),
               out.limbs_.data());
  out.trim();
  return out;
}

BigUint BigUint::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const DLimb v = static_cast<DLimb>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<Limb>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<Limb>(v >> 64);
  }
  out.trim();
  return out;
}

BigUint BigUint::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return BigUint();
  const std::size_t bit_shift = bits % 64;
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    Limb v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
    out.limbs_[i] = v;
  }
  out.trim();
  return out;
}

BigUintDivMod BigUint::divmod(const BigUint& a, const BigUint& b) {
  HERMES_REQUIRE(!b.is_zero());
  BigUintDivMod result;
  if (a < b) {
    result.remainder = a;
    return result;
  }
  if (b.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    const Limb d = b.limbs_[0];
    BigUint q;
    q.limbs_.resize(a.limbs_.size());
    DLimb rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      const DLimb cur = (rem << 64) | a.limbs_[i];
      q.limbs_[i] = static_cast<Limb>(cur / d);
      rem = cur % d;
    }
    q.trim();
    result.quotient = std::move(q);
    result.remainder = BigUint(static_cast<Limb>(rem));
    return result;
  }

  // Knuth Algorithm D (TAOCP 4.3.1) with 128/64-bit trial quotients.
  const std::size_t n = b.limbs_.size();
  const std::size_t m = a.limbs_.size() - n;
  const int s = std::countl_zero(b.limbs_.back());

  // Normalize: v = b << s (top bit of v[n-1] set), u = a << s with one
  // extra high limb.
  ScratchLimbs<kSsoLimbs> v_buf(n);
  ScratchLimbs<2 * kSsoLimbs + 1> u_buf(a.limbs_.size() + 1);
  Limb* v = v_buf.data();
  Limb* u = u_buf.data();
  for (std::size_t i = n; i-- > 0;) {
    v[i] = b.limbs_[i] << s;
    if (s && i > 0) v[i] |= b.limbs_[i - 1] >> (64 - s);
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    const DLimb x = static_cast<DLimb>(a.limbs_[i]) << s;
    u[i] |= static_cast<Limb>(x);
    u[i + 1] |= static_cast<Limb>(x >> 64);
  }

  BigUint q;
  q.limbs_.resize(m + 1);
  constexpr DLimb kBase = static_cast<DLimb>(1) << 64;
  for (std::size_t j = m + 1; j-- > 0;) {
    const DLimb num = (static_cast<DLimb>(u[j + n]) << 64) | u[j + n - 1];
    DLimb qhat = num / v[n - 1];
    DLimb rhat = num % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-subtract u[j .. j+n] -= qhat * v.
    const Limb ql = static_cast<Limb>(qhat);
    DLimb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const DLimb p = static_cast<DLimb>(ql) * v[i];
      const __int128 t = static_cast<__int128>(u[i + j]) -
                         static_cast<__int128>(borrow) -
                         static_cast<__int128>(static_cast<Limb>(p));
      u[i + j] = static_cast<Limb>(t);
      borrow = (p >> 64) - static_cast<DLimb>(t >> 64);
    }
    const __int128 top =
        static_cast<__int128>(u[j + n]) - static_cast<__int128>(borrow);
    u[j + n] = static_cast<Limb>(top);

    Limb qj = ql;
    if (top < 0) {
      // qhat was one too large: add v back.
      --qj;
      DLimb carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const DLimb sum = static_cast<DLimb>(u[i + j]) + v[i] + carry;
        u[i + j] = static_cast<Limb>(sum);
        carry = sum >> 64;
      }
      u[j + n] += static_cast<Limb>(carry);
    }
    q.limbs_[j] = qj;
  }
  q.trim();
  result.quotient = std::move(q);

  // Denormalize the remainder: u[0 .. n) >> s.
  BigUint rem;
  rem.limbs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Limb x = u[i] >> s;
    if (s && i + 1 < n) x |= u[i + 1] << (64 - s);
    rem.limbs_[i] = x;
  }
  rem.trim();
  result.remainder = std::move(rem);
  return result;
}

BigUint BigUint::mulmod(const BigUint& a, const BigUint& b, const BigUint& m) {
  return (a * b) % m;
}

// ---------------------------------------------------------------------------
// MontgomeryCtx

namespace {

// acc holds a (k+1)-limb value in [0, 2n); writes the fully reduced k-limb
// result to out.
void mont_cond_sub(const Limb* nl, std::size_t k, const Limb* acc, Limb* out) {
  bool ge = acc[k] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t j = k; j-- > 0;) {
      if (acc[j] != nl[j]) {
        ge = acc[j] > nl[j];
        break;
      }
    }
  }
  if (ge) {
    Limb borrow = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const Limb aj = acc[j];
      const Limb d = aj - nl[j];
      Limb next = aj < nl[j] ? 1 : 0;
      const Limb d2 = d - borrow;
      if (d < borrow) next = 1;
      out[j] = d2;
      borrow = next;
    }
  } else {
    std::copy(acc, acc + k, out);
  }
}

#ifdef HERMES_BIGNUM_ADX
// The mpn_redc_1 shape of mont_reduce: one addmul_1_adx row per round adds
// m_i * n at limb i, which zeroes t[i]; the row's carry parks in that freed
// limb, and one pass at the end adds all k parked carries into the upper
// half. Deferring them is exact: round i's carry belongs at limb i + k >= k,
// past every limb a later round reads its multiplier from.
void mont_reduce_adx(const Limb* __restrict nl, std::size_t k, Limb n_prime,
                     Limb* __restrict t) {
  for (std::size_t i = 0; i < k; ++i) {
    t[i] = addmul_1_adx(t + i, nl, k, t[i] * n_prime);
  }
  DLimb carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const DLimb cur = static_cast<DLimb>(t[k + i]) + t[i] + carry;
    t[k + i] = static_cast<Limb>(cur);
    carry = cur >> 64;
  }
  t[2 * k] += static_cast<Limb>(carry);
}
#endif

// k Montgomery reduction rounds over the 2k-limb value in t (t[2k] zero);
// the (k+1)-limb pre-subtraction result lands at t[k .. 2k]. t must be
// 2k+1 limbs. The portable rounds are interleaved in pairs: rounds i and
// i+1 share one pass over n with independent carry chains (c0, c1), so the
// multiplies pipeline instead of serializing on a single chain per round.
void mont_reduce(const Limb* __restrict nl, std::size_t k, Limb n_prime,
                 Limb* __restrict t) {
#ifdef HERMES_BIGNUM_ADX
  if (have_addmul_adx()) {
    mont_reduce_adx(nl, k, n_prime, t);
    return;
  }
#endif
  std::size_t i = 0;
  for (; i + 1 < k; i += 2) {
    const DLimb m0 = static_cast<Limb>(t[i] * n_prime);
    DLimb p = t[i] + m0 * nl[0];  // low 64 bits are zero
    DLimb c0 = p >> 64;
    p = t[i + 1] + m0 * nl[1] + c0;
    const DLimb m1 = static_cast<Limb>(static_cast<Limb>(p) * n_prime);
    DLimb q = m1 * nl[0] + static_cast<Limb>(p);  // low 64 bits are zero
    c0 = p >> 64;
    DLimb c1 = q >> 64;
#pragma GCC unroll 8
    for (std::size_t j = 2; j < k; ++j) {
      p = t[i + j] + m0 * nl[j] + c0;
      c0 = p >> 64;
      q = m1 * nl[j - 1] + static_cast<Limb>(p) + c1;
      t[i + j] = static_cast<Limb>(q);
      c1 = q >> 64;
    }
    // Column i+k: round i's chain ends (carry only), round i+1 contributes
    // its nl[k-1] product. Sequential steps keep every 128-bit sum to one
    // product plus two 64-bit terms, so nothing can reach 2^128.
    p = t[i + k] + c0;
    const DLimb cp = p >> 64;
    q = m1 * nl[k - 1] + static_cast<Limb>(p) + c1;
    t[i + k] = static_cast<Limb>(q);
    DLimb carry = (q >> 64) + cp;
    for (std::size_t idx = i + k + 1; carry != 0; ++idx) {
      const DLimb cur = t[idx] + carry;
      t[idx] = static_cast<Limb>(cur);
      carry = cur >> 64;
    }
  }
  for (; i < k; ++i) {  // odd tail (and k == 1)
    const DLimb m = static_cast<Limb>(t[i] * n_prime);
    DLimb carry = 0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < k; ++j) {
      const DLimb cur = t[i + j] + m * nl[j] + carry;
      t[i + j] = static_cast<Limb>(cur);
      carry = cur >> 64;
    }
    for (std::size_t idx = i + k; carry != 0; ++idx) {
      const DLimb cur = t[idx] + carry;
      t[idx] = static_cast<Limb>(cur);
      carry = cur >> 64;
    }
  }
}

// out = a^2 * R^{-1} mod n, square-then-reduce (SOS): the halved cross-term
// squaring produces a^2, then k Montgomery rounds fold it back to k+1 limbs.
// Roughly 1.5k^2 limb products vs the fused CIOS multiply's 2k^2, and the
// exponentiation ladder is ~5 squarings per multiply, so this is the hot
// kernel. `a` must be reduced below n; t is 2k+1 limbs of scratch.
void mont_sqr(const Limb* __restrict nl, std::size_t k, Limb n_prime,
              const Limb* __restrict a, Limb* out, Limb* __restrict t) {
  std::fill(t, t + 2 * k + 1, Limb{0});
  sqr_basecase(a, k, t);
  mont_reduce(nl, k, n_prime, t);
  // a < n gives a^2 + (reduction multiples)*n < 2n*R: t[k..2k] is the
  // (k+1)-limb pre-subtraction result.
  mont_cond_sub(nl, k, t + k, out);
}

}  // namespace

MontgomeryCtx::MontgomeryCtx(const BigUint& n) : n_(n), k_(n.limbs_.size()) {
  HERMES_REQUIRE(n.is_odd());
  // n' = -n^{-1} mod 2^64 via Newton iteration on the lowest limb.
  const Limb n0 = n.limbs_[0];
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;  // inv = n0^{-1} mod 2^64
  n_prime_ = ~inv + 1;                              // -n0^{-1} mod 2^64
  // R^2 mod n, for conversion into Montgomery form.
  const BigUint r2 = (BigUint(1) << (128 * k_)) % n;
  r2_.assign(k_, 0);
  std::copy(r2.limbs_.begin(), r2.limbs_.end(), r2_.begin());
}

// out = a * b * R^{-1} mod n. a, b, out are k_-limb arrays (out must not
// alias a or b); acc is a 2k_+2 limb scratch area. Requires at least one of
// a, b reduced below n; the result is fully reduced. On ADX hardware this
// runs as product-then-reduce over the addmul_1 rows; elsewhere as a fused
// CIOS pass. Both compute the same exact integers limb for limb.
void MontgomeryCtx::mont_mul(const Limb* __restrict a, const Limb* __restrict b,
                             Limb* __restrict out, Limb* __restrict acc) const {
  const Limb* __restrict nl = n_.limbs_.data();
#ifdef HERMES_BIGNUM_ADX
  if (have_addmul_adx()) {
    std::fill(acc, acc + 2 * k_ + 1, Limb{0});
    mul_basecase(a, k_, b, k_, acc);
    mont_reduce(nl, k_, n_prime_, acc);
    mont_cond_sub(nl, k_, acc + k_, out);
    return;
  }
#endif
  std::fill(acc, acc + k_ + 1, Limb{0});
  for (std::size_t i = 0; i < k_; ++i) {
    // Fused CIOS round: one pass over j accumulates both a[i]*b and the
    // reduction multiple m*n, on two independent carry chains (c1, c2) so
    // the multiplies pipeline instead of serializing on a single chain.
    const DLimb ai = a[i];
    DLimb p = acc[0] + ai * b[0];
    const DLimb m = static_cast<Limb>(static_cast<Limb>(p) * n_prime_);
    DLimb q = m * nl[0] + static_cast<Limb>(p);  // low 64 bits are zero
    DLimb c1 = p >> 64;
    DLimb c2 = q >> 64;
#pragma GCC unroll 8
    for (std::size_t j = 1; j < k_; ++j) {
      p = acc[j] + ai * b[j] + c1;
      c1 = p >> 64;
      q = m * nl[j] + static_cast<Limb>(p) + c2;
      acc[j - 1] = static_cast<Limb>(q);
      c2 = q >> 64;
    }
    // With one operand < n the running value stays below 2n < 2^{64k} + n,
    // so the top limb is at most 1 and this add cannot overflow.
    const DLimb top = acc[k_] + c1 + c2;
    acc[k_ - 1] = static_cast<Limb>(top);
    acc[k_] = static_cast<Limb>(top >> 64);
  }
  // Conditional subtraction: acc may be in [0, 2n).
  mont_cond_sub(nl, k_, acc, out);
}

// scratch: 3k_+2 limbs (k_ for the padded operand, 2k_+2 accumulator).
void MontgomeryCtx::to_mont(const BigUint& x, Limb* out, Limb* scratch) const {
  HERMES_DCHECK(x.limbs_.size() <= k_);
  Limb* pad = scratch;
  std::fill(std::copy(x.limbs_.begin(), x.limbs_.end(), pad), pad + k_,
            Limb{0});
  mont_mul(pad, r2_.data(), out, scratch + k_);
}

// scratch: 3k_+2 limbs (k_ for the staged operand, 2k_+2 accumulator). The
// product lands in the result's own limbs, inline up to the SSO bound.
BigUint MontgomeryCtx::from_mont(const Limb* x, Limb* scratch) const {
  Limb* one = scratch;
  std::fill(one, one + k_, Limb{0});
  one[0] = 1;
  BigUint out;
  out.limbs_.resize(k_);
  mont_mul(x, one, out.limbs_.data(), scratch + k_);
  out.trim();
  return out;
}

BigUint MontgomeryCtx::mulmod(const BigUint& a, const BigUint& b) const {
  if (a.is_zero() || b.is_zero()) return BigUint();
  if (a.limbs_.size() > k_) return mulmod(a % n_, b);
  if (b.limbs_.size() > k_) return mulmod(a, b % n_);
  ScratchLimbs<3 * kSsoLimbs + 2> scratch(3 * k_ + 2);
  ScratchLimbs<2 * kSsoLimbs> operands(2 * k_);
  Limb* am = operands.data();
  Limb* bpad = am + k_;
  to_mont(a, am, scratch.data());  // am = a*R mod n, fully reduced
  std::copy(b.limbs_.begin(), b.limbs_.end(), bpad);
  BigUint out;
  out.limbs_.resize(k_);
  mont_mul(am, bpad, out.limbs_.data(), scratch.data());
  out.trim();
  return out;
}

BigUint MontgomeryCtx::powmod(const BigUint& base, const BigUint& exp) const {
  if (k_ == 1 && n_.limbs_[0] == 1) return BigUint();  // everything mod 1
  if (exp.is_zero()) return BigUint(1);
  const BigUint reduced = base.limbs_.size() > k_ ? base % n_ : base;
  if (reduced.is_zero()) return BigUint();

  const std::size_t ebits = exp.bit_length();
  ScratchLimbs<3 * kSsoLimbs + 2> scratch_buf(3 * k_ + 2);
  ScratchLimbs<2 * kSsoLimbs> accs(2 * k_);
  Limb* const scratch = scratch_buf.data();
  Limb* cur = accs.data();
  Limb* spare = cur + k_;
  const auto mont_step = [&](const Limb* other) {
    mont_mul(cur, other, spare, scratch);
    std::swap(cur, spare);
  };
  const auto mont_square = [&] {
    mont_sqr(n_.limbs_.data(), k_, n_prime_, cur, spare, scratch);
    std::swap(cur, spare);
  };

  if (ebits < kShortExpBits) {
    // Short exponents (e = 65537, the 2*Delta and 4*Delta of threshold RSA):
    // an odd-power table costs more than it saves. Start from the base
    // itself, which the top bit contributes.
    ScratchLimbs<kSsoLimbs> b(k_);
    to_mont(reduced, b.data(), scratch);
    std::copy(b.data(), b.data() + k_, cur);
    for (std::size_t i = ebits - 1; i-- > 0;) {
      mont_square();
      if (exp.bit(i)) mont_step(b.data());
    }
    return from_mont(cur, scratch);
  }

  // Window width: 2^(w-1) precomputed odd powers against ebits/w fewer
  // multiplies; crossover points follow the usual table-vs-exponent balance.
  const std::size_t w = ebits >= 768 ? 5 : ebits >= 160 ? 4 : 3;
  const std::size_t table_size = std::size_t{1} << (w - 1);
  // The odd powers, then base^2.
  ScratchLimbs<17 * kSsoLimbs> powers((table_size + 1) * k_);
  Limb* const table = powers.data();
  Limb* const b2 = table + table_size * k_;

  // table[i] = base^(2i+1) in Montgomery form.
  to_mont(reduced, table, scratch);
  mont_sqr(n_.limbs_.data(), k_, n_prime_, table, b2, scratch);
  for (std::size_t i = 1; i < table_size; ++i) {
    mont_mul(table + (i - 1) * k_, b2, table + i * k_, scratch);
  }

  // Left-to-right sliding scan: squarings for every bit, one table multiply
  // per (odd) window. The top window seeds the accumulator directly.
  bool started = false;
  std::size_t i = ebits;
  while (i > 0) {
    if (!exp.bit(i - 1)) {
      mont_square();
      --i;
      continue;
    }
    // Window [l-1, i-1] ending at a set bit.
    std::size_t l = i >= w ? i - w + 1 : 1;
    while (!exp.bit(l - 1)) ++l;
    std::size_t window = 0;
    for (std::size_t j = i; j-- >= l && j + 1 >= l;) {
      window = (window << 1) | (exp.bit(j) ? 1 : 0);
      if (j == l - 1 || j == 0) break;
    }
    const Limb* entry = table + ((window - 1) >> 1) * k_;
    if (started) {
      for (std::size_t j = 0; j < i - l + 1; ++j) mont_square();
      mont_step(entry);
    } else {
      std::copy(entry, entry + k_, cur);
      started = true;
    }
    i = l - 1;
  }
  return from_mont(cur, scratch);
}

MontgomeryCtx::FixedBaseTable MontgomeryCtx::fixed_base_table(
    const BigUint& base, std::size_t max_bits) const {
  FixedBaseTable t;
  t.base_ = base.limbs_.size() > k_ ? base % n_ : base;
  t.digits_ = std::max<std::size_t>(
      1, (max_bits + kFixedBaseDigitBits - 1) / kFixedBaseDigitBits);
  t.powers_.resize(t.digits_ * k_);
  ScratchLimbs<3 * kSsoLimbs + 2> scratch(3 * k_ + 2);
  ScratchLimbs<kSsoLimbs> tmp(k_);
  to_mont(t.base_, t.powers_.data(), scratch.data());
  // powers_[j] = powers_[j-1]^(2^6): six squarings ping-ponging between tmp
  // and the entry, so (six being even) the last one lands in the entry.
  static_assert(kFixedBaseDigitBits % 2 == 0);
  for (std::size_t j = 1; j < t.digits_; ++j) {
    Limb* const bufs[2] = {tmp.data(), t.powers_.data() + j * k_};
    const Limb* src = t.powers_.data() + (j - 1) * k_;
    for (std::size_t s = 0; s < kFixedBaseDigitBits; ++s) {
      mont_sqr(n_.limbs_.data(), k_, n_prime_, src, bufs[s % 2],
               scratch.data());
      src = bufs[s % 2];
    }
  }
  return t;
}

BigUint MontgomeryCtx::powmod(const FixedBaseTable& table,
                              const BigUint& exp) const {
  const std::size_t ebits = exp.bit_length();
  if (ebits > table.max_bits()) return powmod(table.base_, exp);
  if (k_ == 1 && n_.limbs_[0] == 1) return BigUint();  // everything mod 1
  if (exp.is_zero()) return BigUint(1);
  if (table.base_.is_zero()) return BigUint();

  // Digit j of exp is bits [6j, 6j+6); visit the positions by descending
  // digit.
  constexpr Limb kRadix = Limb{1} << kFixedBaseDigitBits;
  const std::size_t ndigits =
      (ebits + kFixedBaseDigitBits - 1) / kFixedBaseDigitBits;
  std::vector<Limb> digit(ndigits);
  for (std::size_t j = 0; j < ndigits; ++j) {
    const std::size_t pos = j * kFixedBaseDigitBits;
    const std::size_t off = pos % 64;
    Limb v = exp.limb(pos / 64) >> off;
    if (off + kFixedBaseDigitBits > 64) {
      v |= exp.limb(pos / 64 + 1) << (64 - off);
    }
    digit[j] = v & (kRadix - 1);
  }
  std::vector<std::size_t> order(ndigits);
  for (std::size_t j = 0; j < ndigits; ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return digit[x] > digit[y];
  });

  // Yao's method: for d = 63 down to 1, B *= g_j for every digit j equal to
  // d, then A *= B. Each g_j then enters A exactly d times, so
  // A = prod_j g_j^(digit j) = base^exp. A product with a still-empty
  // accumulator is a copy.
  ScratchLimbs<3 * kSsoLimbs + 2> scratch(3 * k_ + 2);
  ScratchLimbs<3 * kSsoLimbs> accs(3 * k_);
  Limb* a = accs.data();
  Limb* b = a + k_;
  Limb* spare = b + k_;
  bool a_set = false, b_set = false;
  const auto accumulate = [&](Limb*& into, bool& set, const Limb* factor) {
    if (set) {
      mont_mul(into, factor, spare, scratch.data());
      std::swap(into, spare);
    } else {
      std::copy(factor, factor + k_, into);
      set = true;
    }
  };
  auto next = order.begin();
  for (Limb d = kRadix - 1; d >= 1; --d) {
    for (; next != order.end() && digit[*next] == d; ++next) {
      accumulate(b, b_set, table.powers_.data() + *next * k_);
    }
    if (b_set) accumulate(a, a_set, b);
  }
  return from_mont(a, scratch.data());
}

BigUint BigUint::powmod(const BigUint& base, const BigUint& exp, const BigUint& m) {
  HERMES_REQUIRE(m.is_odd());
  if (m == BigUint(1)) return BigUint();
  if (exp.is_zero()) return BigUint(1);
  return MontgomeryCtx(m).powmod(base, exp);
}

BigUint BigUint::gcd(BigUint a, BigUint b) {
  while (!b.is_zero()) {
    BigUint r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

bool BigUint::modinv(const BigUint& a, const BigUint& m, BigUint* out) {
  const ExtendedGcd eg = extended_gcd(a % m, m);
  if (eg.g != BigUint(1)) return false;
  *out = eg.x.mod_positive(m);
  return true;
}

namespace {

// The odd primes below kSieveBound, cut into runs whose product fits a limb.
// A number's residue mod a run's product takes one pass over its limbs, and
// each prime's residue is one word remainder of that.
struct SieveTable {
  struct Run {
    Limb product = 1;
    std::size_t begin = 0, end = 0;  // into primes
  };
  std::vector<std::uint32_t> primes;
  std::vector<Run> runs;
};

const SieveTable& sieve_table() {
  static const SieveTable table = [] {
    SieveTable t;
    std::vector<bool> composite(kSieveBound, false);
    for (std::uint32_t i = 3; i < kSieveBound; i += 2) {
      if (composite[i]) continue;
      t.primes.push_back(i);
      for (std::uint32_t j = i * i; j < kSieveBound; j += 2 * i) {
        composite[j] = true;
      }
    }
    for (std::size_t i = 0; i < t.primes.size();) {
      SieveTable::Run run{1, i, i};
      while (run.end < t.primes.size() &&
             run.product <= ~Limb{0} / t.primes[run.end]) {
        run.product *= t.primes[run.end++];
      }
      t.runs.push_back(run);
      i = run.end;
    }
    return t;
  }();
  return table;
}

}  // namespace

bool safe_prime_sieve_rejects(const BigUint& q) {
  // Only a q below the bound can be a table prime p, or (p - 1)/2 for one.
  const bool small = q.limb_count() <= 1 && q.to_u64() < kSieveBound;
  const SieveTable& t = sieve_table();
  for (const SieveTable::Run& run : t.runs) {
    // Small primes reject most numbers, so a run's residue is computed only
    // when the sieve reaches it.
    Limb run_residue = 0;
    for (std::size_t i = q.limb_count(); i-- > 0;) {
      run_residue = static_cast<Limb>(
          ((static_cast<DLimb>(run_residue) << 64) | q.limb(i)) % run.product);
    }
    for (std::size_t i = run.begin; i < run.end; ++i) {
      const std::uint32_t p = t.primes[i];
      const auto r = static_cast<std::uint32_t>(run_residue % p);
      if (r == 0) {
        if (!small || q.to_u64() != p) return true;
      } else if (r == (p - 1) / 2 && (!small || 2 * q.to_u64() + 1 != p)) {
        return true;
      }
    }
  }
  return false;
}

bool BigUint::is_probable_prime(const BigUint& n, Rng& witnesses, int rounds) {
  if (n < BigUint(4)) return n >= BigUint(2);
  if (!n.is_odd()) return false;
  // n is odd: share one Montgomery context across all rounds and the
  // squaring chains.
  const MontgomeryCtx ctx(n);
  // Write n-1 = d * 2^r.
  const BigUint n_minus_1 = n - BigUint(1);
  BigUint d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  const BigUint two(2);
  const BigUint n_minus_3 = n - BigUint(3);
  for (int round = 0; round < rounds; ++round) {
    const BigUint a = random_below(witnesses, n_minus_3) + two;  // [2, n-2]
    BigUint x = ctx.powmod(a, d);
    if (x == BigUint(1) || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = ctx.mulmod(x, x);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

Rng BigUint::witness_stream(const BigUint& n) {
  const Bytes bytes = n.to_bytes_be();
  return Rng(digest_prefix_u64(sha256(BytesView(bytes.data(), bytes.size()))));
}

// ---------------------------------------------------------------------------
// BigInt

BigInt::BigInt() = default;

BigInt::BigInt(std::int64_t v) {
  if (v < 0) {
    neg_ = true;
    mag_ = BigUint(static_cast<std::uint64_t>(-(v + 1)) + 1);
  } else {
    mag_ = BigUint(static_cast<std::uint64_t>(v));
  }
}

BigInt::BigInt(BigUint mag, bool negative) : mag_(std::move(mag)), neg_(negative) {
  normalize();
}

void BigInt::normalize() {
  if (mag_.is_zero()) neg_ = false;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.mag_.is_zero()) out.neg_ = !out.neg_;
  return out;
}

BigInt BigInt::operator+(const BigInt& o) const {
  if (neg_ == o.neg_) return BigInt(mag_ + o.mag_, neg_);
  // Opposite signs: subtract smaller magnitude from larger.
  const int cmp = BigUint::compare(mag_, o.mag_);
  if (cmp == 0) return BigInt();
  if (cmp > 0) return BigInt(mag_ - o.mag_, neg_);
  return BigInt(o.mag_ - mag_, o.neg_);
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

BigInt BigInt::operator*(const BigInt& o) const {
  return BigInt(mag_ * o.mag_, neg_ != o.neg_);
}

BigInt BigInt::operator/(const BigInt& o) const {
  const auto dm = BigUint::divmod(mag_, o.mag_);
  return BigInt(dm.quotient, neg_ != o.neg_);
}

BigInt BigInt::operator%(const BigInt& o) const {
  const auto dm = BigUint::divmod(mag_, o.mag_);
  return BigInt(dm.remainder, neg_);
}

bool BigInt::operator==(const BigInt& o) const {
  return neg_ == o.neg_ && mag_ == o.mag_;
}

std::string BigInt::to_string_hex() const {
  // Appended, not `"-" + hex`: g++ 12 at -O3 misreads that as an
  // overlapping copy (-Wrestrict).
  std::string out = neg_ ? "-" : "";
  out += mag_.to_hex();
  return out;
}

BigUint BigInt::mod_positive(const BigUint& m) const {
  BigUint r = mag_ % m;
  if (neg_ && !r.is_zero()) r = m - r;
  return r;
}

ExtendedGcd extended_gcd(const BigUint& a, const BigUint& b) {
  // Iterative extended Euclid on signed integers.
  BigInt old_r = BigInt::from_biguint(a), r = BigInt::from_biguint(b);
  BigInt old_s = 1, s = 0;
  BigInt old_t = 0, t = 1;
  while (!r.is_zero()) {
    const BigInt q = old_r / r;
    BigInt tmp = old_r - q * r;
    old_r = r;
    r = tmp;
    tmp = old_s - q * s;
    old_s = s;
    s = tmp;
    tmp = old_t - q * t;
    old_t = t;
    t = tmp;
  }
  ExtendedGcd out;
  out.g = old_r.magnitude();
  out.x = old_s;
  out.y = old_t;
  return out;
}

}  // namespace hermes::crypto
