// HMAC-based simulation crypto backends (see signer.hpp for rationale) and
// the real threshold-RSA backend of the ThresholdScheme interface.
#pragma once

#include <memory>

#include "crypto/signer.hpp"
#include "crypto/threshold_rsa.hpp"
#include "support/rng.hpp"

namespace hermes::crypto {

// Symmetric-key "signature": HMAC(key, msg). Verifiable by anyone holding
// the key, which in a simulation is every honest component. 32-byte sigs.
// HERMES signs its violation and departure reports, join witnesses and
// view-change votes with it.
class SimSigner {
 public:
  explicit SimSigner(Bytes key);
  static SimSigner derive(BytesView master, std::uint64_t node_id);

  Bytes sign(BytesView message) const;
  bool verify(BytesView message, BytesView signature) const;

 private:
  Bytes key_;
};

// Threshold scheme simulation: partial_i = HMAC(group_key, msg || i);
// the combined signature is HMAC(group_key, msg) once `threshold` valid
// partials from distinct indices exist. Deterministic and
// subset-independent, matching the uniqueness property of Shoup RSA.
class SimThresholdScheme final : public ThresholdScheme {
 public:
  SimThresholdScheme(Bytes group_key, std::size_t players, std::size_t threshold);

  std::size_t players() const override { return players_; }
  std::size_t threshold() const override { return threshold_; }
  PartialSignature partial_sign(std::size_t signer_index,
                                BytesView message) const override;
  bool verify_partial(BytesView message,
                      const PartialSignature& partial) const override;
  std::optional<Bytes> combine(
      BytesView message, std::span<const PartialSignature> partials) const override;
  bool verify_combined(BytesView message, BytesView signature) const override;

 private:
  Bytes group_key_;
  std::size_t players_;
  std::size_t threshold_;
};

// Real Shoup threshold RSA backend. Holds all shares (the simulator plays
// every committee member); a deployment would give each node one share.
// The ThresholdRsaContext (Montgomery state, Bezout pair, fixed-base table,
// verification-key inverses) lives for the scheme's lifetime — the sim
// keeps the scheme across committee epochs, so it is built once per key.
class RsaThresholdScheme final : public ThresholdScheme {
 public:
  explicit RsaThresholdScheme(ThresholdRsaKey key);

  std::size_t players() const override { return key_.pub.players; }
  std::size_t threshold() const override { return key_.pub.threshold; }
  PartialSignature partial_sign(std::size_t signer_index,
                                BytesView message) const override;
  bool verify_partial(BytesView message,
                      const PartialSignature& partial) const override;
  std::vector<std::uint8_t> verify_partials(
      BytesView message,
      std::span<const PartialSignature> partials) const override;
  std::optional<Bytes> combine(
      BytesView message, std::span<const PartialSignature> partials) const override;
  // Skips the proof re-verification pass: the collector has already
  // checked every partial as it arrived.
  std::optional<Bytes> combine_verified(
      BytesView message, std::span<const PartialSignature> partials) const override;
  bool verify_combined(BytesView message, BytesView signature) const override;

  const ThresholdRsaPublic& public_params() const { return key_.pub; }
  const ThresholdRsaContext& context() const { return ctx_; }

 private:
  ThresholdRsaKey key_;
  ThresholdRsaContext ctx_;  // borrows key_.pub; declared after key_
};

}  // namespace hermes::crypto
