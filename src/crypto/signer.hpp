// The threshold-signature interface the protocol layer is written against.
//
// Two backends implement it:
//   - real Shoup threshold RSA (RsaThresholdScheme), whose combined
//     signatures verify as RSA-FDH; the real-crypto workload and the unit
//     tests run it;
//   - deterministic HMAC-based simulation crypto (SimThresholdScheme), used
//     for large-N simulation runs where the protocol-visible properties
//     (determinism, uniqueness, threshold counting, verifiability by key
//     holders) matter but public-key cost would distort simulated-time
//     measurements. The paper's own evaluation is a simulation with the
//     same character.
// Per-node signatures (reports, departures, witnesses, votes) use SimSigner
// (crypto/sim_signer.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "support/bytes.hpp"

namespace hermes::crypto {

struct PartialSignature {
  std::size_t signer_index = 0;  // 1-based
  Bytes bytes;
};

// (threshold)-of-(players) signature scheme. Indices are 1-based.
class ThresholdScheme {
 public:
  virtual ~ThresholdScheme() = default;
  virtual std::size_t players() const = 0;
  virtual std::size_t threshold() const = 0;
  virtual PartialSignature partial_sign(std::size_t signer_index,
                                        BytesView message) const = 0;
  virtual bool verify_partial(BytesView message,
                              const PartialSignature& partial) const = 0;
  // Batch form over one round's partials: out[i] == 1 iff partials[i]
  // verifies, with verdicts identical to verify_partial. Backends that can
  // share per-message precomputation (e.g. the Fiat-Shamir bases in Shoup
  // RSA) override this; the default just loops.
  virtual std::vector<std::uint8_t> verify_partials(
      BytesView message, std::span<const PartialSignature> partials) const {
    std::vector<std::uint8_t> out(partials.size(), 0);
    for (std::size_t i = 0; i < partials.size(); ++i) {
      out[i] = verify_partial(message, partials[i]) ? 1 : 0;
    }
    return out;
  }
  virtual std::optional<Bytes> combine(
      BytesView message, std::span<const PartialSignature> partials) const = 0;
  // Combine partials the caller has already verified individually (e.g. a
  // collector that checks each partial as it arrives): backends may skip
  // re-verification. Output is identical to combine() on all-valid input;
  // the default just delegates.
  virtual std::optional<Bytes> combine_verified(
      BytesView message, std::span<const PartialSignature> partials) const {
    return combine(message, partials);
  }
  virtual bool verify_combined(BytesView message, BytesView signature) const = 0;
};

// Derives the 64-bit dissemination seed from a combined signature: the
// big-endian prefix of SHA-256(signature). Uniform because the signature is
// unique per (i, H(m)) and the hash is modeled as a random oracle.
std::uint64_t seed_from_signature(BytesView signature);

}  // namespace hermes::crypto
