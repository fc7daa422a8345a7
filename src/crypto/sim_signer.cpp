#include "crypto/sim_signer.hpp"

#include <algorithm>

#include "crypto/hmac.hpp"
#include "support/assert.hpp"

namespace hermes::crypto {

std::uint64_t seed_from_signature(BytesView signature) {
  return digest_prefix_u64(sha256(signature));
}

// ---------------------------------------------------------------------------
// SimSigner

SimSigner::SimSigner(Bytes key) : key_(std::move(key)) {
  HERMES_REQUIRE(!key_.empty());
}

SimSigner SimSigner::derive(BytesView master, std::uint64_t node_id) {
  Bytes label = to_bytes("hermes.sim_signer.");
  put_u64_be(label, node_id);
  const Digest d = hmac_sha256(master, label);
  return SimSigner(digest_to_bytes(d));
}

Bytes SimSigner::sign(BytesView message) const {
  return digest_to_bytes(hmac_sha256(key_, message));
}

bool SimSigner::verify(BytesView message, BytesView signature) const {
  const Bytes expected = sign(message);
  return expected.size() == signature.size() &&
         std::equal(expected.begin(), expected.end(), signature.begin());
}

// ---------------------------------------------------------------------------
// SimThresholdScheme

SimThresholdScheme::SimThresholdScheme(Bytes group_key, std::size_t players,
                                       std::size_t threshold)
    : group_key_(std::move(group_key)), players_(players), threshold_(threshold) {
  HERMES_REQUIRE(!group_key_.empty());
  HERMES_REQUIRE(threshold_ >= 1 && threshold_ <= players_);
}

PartialSignature SimThresholdScheme::partial_sign(std::size_t signer_index,
                                                  BytesView message) const {
  HERMES_REQUIRE(signer_index >= 1 && signer_index <= players_);
  Bytes material(message.begin(), message.end());
  put_varint(material, signer_index);
  return PartialSignature{signer_index,
                          digest_to_bytes(hmac_sha256(group_key_, material))};
}

bool SimThresholdScheme::verify_partial(BytesView message,
                                        const PartialSignature& partial) const {
  if (partial.signer_index < 1 || partial.signer_index > players_) return false;
  const PartialSignature expected = partial_sign(partial.signer_index, message);
  return expected.bytes == partial.bytes;
}

std::optional<Bytes> SimThresholdScheme::combine(
    BytesView message, std::span<const PartialSignature> partials) const {
  std::vector<std::size_t> seen;
  for (const auto& p : partials) {
    if (!verify_partial(message, p)) continue;
    if (std::find(seen.begin(), seen.end(), p.signer_index) == seen.end()) {
      seen.push_back(p.signer_index);
    }
  }
  if (seen.size() < threshold_) return std::nullopt;
  return digest_to_bytes(hmac_sha256(group_key_, message));
}

bool SimThresholdScheme::verify_combined(BytesView message,
                                         BytesView signature) const {
  const Bytes expected = digest_to_bytes(hmac_sha256(group_key_, message));
  return expected.size() == signature.size() &&
         std::equal(expected.begin(), expected.end(), signature.begin());
}

// ---------------------------------------------------------------------------
// RsaThresholdScheme

RsaThresholdScheme::RsaThresholdScheme(ThresholdRsaKey key)
    : key_(std::move(key)), ctx_(key_.pub) {}

PartialSignature RsaThresholdScheme::partial_sign(std::size_t signer_index,
                                                  BytesView message) const {
  HERMES_REQUIRE(signer_index >= 1 && signer_index <= key_.pub.players);
  const ThresholdPartial partial =
      threshold_partial_sign(ctx_, key_.shares[signer_index - 1], message);
  return PartialSignature{signer_index, partial.encode()};
}

bool RsaThresholdScheme::verify_partial(BytesView message,
                                        const PartialSignature& partial) const {
  const auto decoded = ThresholdPartial::decode(partial.bytes);
  if (!decoded || decoded->signer_index != partial.signer_index) return false;
  return threshold_verify_partial(ctx_, message, *decoded);
}

std::vector<std::uint8_t> RsaThresholdScheme::verify_partials(
    BytesView message, std::span<const PartialSignature> partials) const {
  // Decode first, then verify the survivors in one batch so the Fiat-Shamir
  // bases are computed once for the round.
  std::vector<ThresholdPartial> decoded;
  std::vector<std::size_t> positions;
  decoded.reserve(partials.size());
  positions.reserve(partials.size());
  for (std::size_t i = 0; i < partials.size(); ++i) {
    auto d = ThresholdPartial::decode(partials[i].bytes);
    if (!d || d->signer_index != partials[i].signer_index) continue;
    decoded.push_back(std::move(*d));
    positions.push_back(i);
  }
  std::vector<std::uint8_t> out(partials.size(), 0);
  const std::vector<std::uint8_t> verdicts =
      threshold_verify_partials(ctx_, message, decoded);
  for (std::size_t j = 0; j < verdicts.size(); ++j) {
    out[positions[j]] = verdicts[j];
  }
  return out;
}

std::optional<Bytes> RsaThresholdScheme::combine(
    BytesView message, std::span<const PartialSignature> partials) const {
  std::vector<ThresholdPartial> decoded;
  decoded.reserve(partials.size());
  for (const auto& p : partials) {
    auto d = ThresholdPartial::decode(p.bytes);
    if (!d || d->signer_index != p.signer_index) continue;
    decoded.push_back(std::move(*d));
  }
  // Batched verification shares the per-message bases across the round.
  const std::vector<std::uint8_t> ok =
      threshold_verify_partials(ctx_, message, decoded);
  std::vector<ThresholdPartial> valid;
  valid.reserve(decoded.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (ok[i]) valid.push_back(std::move(decoded[i]));
  }
  return threshold_combine(ctx_, message, valid);
}

std::optional<Bytes> RsaThresholdScheme::combine_verified(
    BytesView message, std::span<const PartialSignature> partials) const {
  std::vector<ThresholdPartial> decoded;
  decoded.reserve(partials.size());
  for (const auto& p : partials) {
    auto d = ThresholdPartial::decode(p.bytes);
    if (!d || d->signer_index != p.signer_index) continue;
    decoded.push_back(std::move(*d));
  }
  // No proof re-check: the caller verified each partial on arrival, and
  // threshold_combine still self-checks the final signature (a bad input
  // yields nullopt, never a wrong signature).
  return threshold_combine(ctx_, message, decoded);
}

bool RsaThresholdScheme::verify_combined(BytesView message,
                                         BytesView signature) const {
  return threshold_verify(ctx_, message, signature);
}

}  // namespace hermes::crypto
