// Frozen pre-rewrite bignum kernels: 32-bit limbs, schoolbook
// multiplication, binary long division, and bit-at-a-time Montgomery (CIOS)
// exponentiation — verbatim ports of the implementation bignum.cpp replaced.
//
// Two consumers, both of which need the old code to stay alive and link it
// through its own hermes_crypto_ref target (the library proper does not):
//   - the differential property suite pins the rewritten 64-bit kernels
//     against these bit for bit across randomized operand shapes;
//   - bench_crypto measures the new kernels against this baseline in the
//     same run, so the reported speedup is honest (same box, same build).
//
// Not for production use — everything here is intentionally the slow path.
#pragma once

#include "crypto/bignum.hpp"

namespace hermes::crypto::ref {

// Schoolbook product (quadratic, 32-bit limbs).
BigUint mul(const BigUint& a, const BigUint& b);

// Binary long division (shift-and-subtract); b must be non-zero.
BigUintDivMod divmod(const BigUint& a, const BigUint& b);

// Square-and-multiply modular exponentiation; odd multi-limb moduli go
// through a per-call 32-bit CIOS Montgomery context, everything else
// through divmod reduction. m must be non-zero.
BigUint powmod(const BigUint& base, const BigUint& exp, const BigUint& m);

}  // namespace hermes::crypto::ref
