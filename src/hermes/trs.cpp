#include "hermes/trs.hpp"

namespace hermes::hermes_proto {

Bytes TrsId::signed_message() const {
  Bytes out = to_bytes("hermes.trs.v1");
  put_u32_be(out, origin);
  put_u64_be(out, seq);
  append(out, BytesView(tx_hash.data(), tx_hash.size()));
  return out;
}

std::string TrsId::key() const {
  Bytes material = signed_message();
  return hex_encode(material);
}

bool BrachaState::on_request() {
  if (echoed_) return false;
  echoed_ = true;
  return true;
}

bool BrachaState::on_echo(net::NodeId member) {
  echoes_.insert(member);
  // An Echo from a peer also implies the tuple exists; echo back once.
  if (!readied_ && echoes_.size() >= 2 * f_ + 1) {
    readied_ = true;
    return true;
  }
  return false;
}

bool BrachaState::on_ready(net::NodeId member) {
  readies_.insert(member);
  if (!readied_ && readies_.size() >= f_ + 1) {
    readied_ = true;
    return true;
  }
  return false;
}

bool BrachaState::try_deliver() {
  if (!delivered_ && readies_.size() >= 2 * f_ + 1) {
    delivered_ = true;
    return true;
  }
  return false;
}

TrsCommitteeMember::SeqCheck TrsCommitteeMember::check_sequence(
    net::NodeId origin, std::uint64_t seq) const {
  const auto it = next_seq_.find(origin);
  const std::uint64_t expected = it == next_seq_.end() ? 1 : it->second;
  if (seq < expected) return SeqCheck::kDuplicate;
  if (seq > expected) return SeqCheck::kFuture;
  return SeqCheck::kInOrder;
}

void TrsCommitteeMember::mark_delivered(net::NodeId origin, std::uint64_t seq) {
  auto& next = next_seq_.try_emplace(origin, 1).first->second;
  if (seq == next) ++next;
}

std::uint64_t TrsCommitteeMember::next_expected(net::NodeId origin) const {
  const auto it = next_seq_.find(origin);
  return it == next_seq_.end() ? 1 : it->second;
}

BrachaState& TrsCommitteeMember::state_for(const TrsId& id, std::size_t f) {
  return instances_.try_emplace(id.key(), f).first->second;
}

BrachaState* TrsCommitteeMember::find_state(const TrsId& id) {
  const auto it = instances_.find(id.key());
  return it == instances_.end() ? nullptr : &it->second;
}

std::optional<Bytes> TrsCollector::add_partial(
    const TrsId& id, const crypto::PartialSignature& partial) {
  const std::string key = id.key();
  if (combined_.count(key)) return std::nullopt;
  const Bytes message = id.signed_message();
  if (!scheme_.verify_partial(message, partial)) return std::nullopt;
  auto& list = partials_[key];
  for (const auto& existing : list) {
    if (existing.signer_index == partial.signer_index) return std::nullopt;
  }
  list.push_back(partial);
  if (list.size() < scheme_.threshold()) return std::nullopt;
  // Every partial in `list` passed verify_partial on arrival; the
  // verified-combine path skips the redundant proof re-check.
  auto combined = scheme_.combine_verified(message, list);
  if (!combined) return std::nullopt;
  combined_.insert(key);
  partials_.erase(key);
  return combined;
}

bool TrsCollector::done(const TrsId& id) const {
  return combined_.count(id.key()) > 0;
}

std::size_t select_overlay(BytesView combined_signature, std::size_t k) {
  return static_cast<std::size_t>(crypto::seed_from_signature(combined_signature) %
                                  k);
}

}  // namespace hermes::hermes_proto
