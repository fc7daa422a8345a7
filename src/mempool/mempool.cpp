#include "mempool/mempool.hpp"

#include <algorithm>
#include <array>

#include "support/assert.hpp"

namespace hermes::mempool {

namespace {

// The shortest member serialize_batch writes: id, sender, sequence, a
// one-byte payload-size varint, the adversarial flag, the victim id and
// the filler digest.
constexpr std::size_t kMinBatchMemberBytes =
    8 + 4 + 8 + 1 + 1 + 8 + crypto::kSha256DigestSize;

}  // namespace

crypto::Digest Transaction::hash() const {
  // Big-endian (id, sender, seq, size).
  std::array<std::uint8_t, 28> material{};
  std::size_t at = 0;
  const auto put_be = [&material, &at](std::uint64_t v, std::size_t width) {
    for (std::size_t i = width; i-- > 0; v >>= 8) {
      material[at + i] = static_cast<std::uint8_t>(v);
    }
    at += width;
  };
  put_be(id, 8);
  put_be(sender, 4);
  put_be(sender_seq, 8);
  put_be(payload_bytes, 8);
  return crypto::sha256(BytesView(material.data(), material.size()));
}

Bytes serialize_batch(std::span<const Transaction> txs) {
  Bytes out;
  put_varint(out, txs.size());
  bool any_fee = false;
  for (const Transaction& tx : txs) {
    put_u64_be(out, tx.id);
    put_u32_be(out, tx.sender);
    put_u64_be(out, tx.sender_seq);
    put_varint(out, static_cast<std::uint64_t>(tx.payload_bytes));
    out.push_back(tx.adversarial ? 1 : 0);
    put_u64_be(out, tx.victim_id);
    // The synthetic body: deterministic filler standing in for the real
    // payload so the batch hash covers payload-sized content.
    const crypto::Digest filler = tx.hash();
    append(out, BytesView(filler.data(), filler.size()));
    any_fee = any_fee || tx.fee != 0;
  }
  // Fee appendix: present only when some member pays a fee, so fee-less
  // batches (the whole historical corpus) keep their exact byte encoding,
  // batch hash and overlay selection.
  if (any_fee) {
    out.push_back(1);
    for (const Transaction& tx : txs) put_varint(out, tx.fee);
  }
  return out;
}

std::optional<std::vector<Transaction>> deserialize_batch(BytesView bytes) {
  std::size_t off = 0;
  std::uint64_t count = 0;
  if (!get_varint(bytes, &off, &count)) return std::nullopt;
  // Every member takes at least kMinBatchMemberBytes: reject a count the
  // input cannot hold before reserving for it.
  if (count > (bytes.size() - off) / kMinBatchMemberBytes) return std::nullopt;
  std::vector<Transaction> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (off + 20 > bytes.size()) return std::nullopt;
    Transaction tx;
    tx.id = get_u64_be(bytes, off);
    off += 8;
    tx.sender = get_u32_be(bytes, off);
    off += 4;
    tx.sender_seq = get_u64_be(bytes, off);
    off += 8;
    std::uint64_t payload = 0;
    if (!get_varint(bytes, &off, &payload)) return std::nullopt;
    tx.payload_bytes = static_cast<std::size_t>(payload);
    if (off + 1 + 8 + crypto::kSha256DigestSize > bytes.size()) {
      return std::nullopt;
    }
    tx.adversarial = bytes[off++] != 0;
    tx.victim_id = get_u64_be(bytes, off);
    off += 8;
    off += crypto::kSha256DigestSize;  // skip filler
    out.push_back(tx);
  }
  if (off == bytes.size()) return out;  // legacy fee-less encoding
  if (bytes[off++] != 1) return std::nullopt;
  for (Transaction& tx : out) {
    std::uint64_t fee = 0;
    if (!get_varint(bytes, &off, &fee)) return std::nullopt;
    tx.fee = fee;
  }
  if (off != bytes.size()) return std::nullopt;
  return out;
}

std::size_t batch_wire_size(std::span<const Transaction> txs) {
  std::size_t total = 8;
  bool any_fee = false;
  for (const Transaction& tx : txs) {
    total += tx.payload_bytes + 29;
    any_fee = any_fee || tx.fee != 0;
  }
  if (any_fee) {
    Bytes fees;
    fees.push_back(1);
    for (const Transaction& tx : txs) put_varint(fees, tx.fee);
    total += fees.size();
  }
  return total;
}

crypto::Digest batch_hash(std::span<const Transaction> txs) {
  return crypto::sha256(serialize_batch(txs));
}

void Mempool::admit(Entry& entry) {
  fee_index_.insert({entry.tx.fee, entry.tx.id});
  entry.state = Admission::kResident;
  ++resident_count_;
  ++admitted_total_;
}

bool Mempool::insert(const Transaction& tx, sim::SimTime now) {
  const auto [it, fresh] =
      entries_.try_emplace(tx.id, Entry{tx, now, arrival_order_.size()});
  if (!fresh) return false;
  arrival_order_.push_back(tx.id);

  Entry& entry = it->second;
  if (capacity_ == 0 || resident_count_ < capacity_) {
    admit(entry);
    return true;
  }
  // Full: fee-priority admission. The incoming transaction must outrank the
  // resident (fee, id) minimum to displace it; ties and lower fees bounce.
  HERMES_DCHECK(!fee_index_.empty());
  const auto [min_fee, min_id] = *fee_index_.begin();
  if (!outranks(tx.fee, tx.id, min_fee, min_id)) {
    entry.state = Admission::kRejected;
    ++rejected_total_;
    return true;
  }
  fee_index_.erase(fee_index_.begin());
  auto victim = entries_.find(min_id);
  HERMES_DCHECK(victim != entries_.end());
  victim->second.state = Admission::kEvicted;
  --resident_count_;
  evictions_.push_back(Eviction{min_id, min_fee, tx.id, tx.fee, now});
  admit(entry);
  return true;
}

bool Mempool::contains(std::uint64_t tx_id) const {
  const auto it = entries_.find(tx_id);
  return it != entries_.end() && it->second.state == Admission::kResident;
}

bool Mempool::seen(std::uint64_t tx_id) const {
  return entries_.count(tx_id) > 0;
}

std::optional<Transaction> Mempool::get(std::uint64_t tx_id) const {
  const auto it = entries_.find(tx_id);
  if (it == entries_.end() || it->second.state != Admission::kResident) {
    return std::nullopt;
  }
  return it->second.tx;
}

Mempool::Admission Mempool::admission_of(std::uint64_t tx_id) const {
  const auto it = entries_.find(tx_id);
  return it == entries_.end() ? Admission::kNeverSeen : it->second.state;
}

sim::SimTime Mempool::arrival_time(std::uint64_t tx_id) const {
  const auto it = entries_.find(tx_id);
  return it == entries_.end() ? -1.0 : it->second.arrived;
}

std::size_t Mempool::arrival_position(std::uint64_t tx_id) const {
  const auto it = entries_.find(tx_id);
  if (it == entries_.end() || it->second.state != Admission::kResident) {
    return SIZE_MAX;
  }
  return it->second.position;
}

void Mempool::add_commitment(const Commitment& c) {
  std::string key = hex_encode(BytesView(c.tx_hash.data(), c.tx_hash.size()));
  const auto [it, inserted] =
      commitments_.try_emplace(std::move(key), commitment_order_.size());
  if (inserted) commitment_order_.push_back(it->first);
}

bool Mempool::has_commitment(const crypto::Digest& tx_hash) const {
  return commitments_.count(
             hex_encode(BytesView(tx_hash.data(), tx_hash.size()))) > 0;
}

std::size_t Mempool::commitment_position(const crypto::Digest& tx_hash) const {
  const auto it =
      commitments_.find(hex_encode(BytesView(tx_hash.data(), tx_hash.size())));
  return it == commitments_.end() ? SIZE_MAX : it->second;
}

std::vector<std::uint64_t> Mempool::digest() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(resident_count_);
  for (std::uint64_t id : arrival_order_) {
    if (contains(id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::uint64_t> Mempool::missing_from(
    const std::vector<std::uint64_t>& peer_digest) const {
  HERMES_DCHECK(std::is_sorted(peer_digest.begin(), peer_digest.end()));
  std::vector<std::uint64_t> mine = digest();
  std::vector<std::uint64_t> out;
  std::set_difference(mine.begin(), mine.end(), peer_digest.begin(),
                      peer_digest.end(), std::back_inserter(out));
  return out;
}

}  // namespace hermes::mempool
