// Per-node mempool with LØ-style commitments, reconciliation digests and
// fee-priority admission under a bounded capacity.
//
// The mempool records the order in which transactions became known to the
// node (the arrival log), which is what the front-running experiments
// examine: an attack succeeds when the adversarial transaction precedes the
// victim transaction in the block-inclusion order, which miners derive from
// their arrival logs.
//
// Layout: one 48-byte entry per transaction the node has seen, in an
// arrival log that never moves its entries (a deque; an entry's index in it
// is its arrival position), and an open-addressed index from tx id to log
// position with 4-byte slots at load at most 1/2. An entry does not copy its
// transaction: it shares ownership of the record the node got it in (the
// message body, a decoded batch, the origin's own record) and reads the
// transaction there, so a transaction is stored once per body, not once per
// node. A relay may bind the body it keeps to the entry and mark the entry
// forwarded (HERMES's held record); neither changes what the entry reads.
//
// Under sustained load the pool is a contended resource: set_capacity()
// bounds the resident set, and admission becomes fee-priority — a full pool
// admits a new transaction only by evicting the resident minimum under the
// (fee, id) order, so the resident set is always the top-capacity slice of
// everything offered, independent of arrival order. Every transaction ever
// offered stays in the seen set (dedup for relay paths must survive
// eviction, or gossip would re-pull evicted bodies forever), so an evicted
// transaction can never be re-admitted.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mempool/transaction.hpp"
#include "support/position_index.hpp"

namespace hermes::mempool {

// One fee-pressure eviction: `evicted` (the resident (fee, id) minimum) was
// displaced by `incoming`. The invariant suite checks incoming outranks
// evicted under the (fee, id) order on every record.
struct Eviction {
  std::uint64_t evicted_id = 0;
  std::uint64_t evicted_fee = 0;
  std::uint64_t incoming_id = 0;
  std::uint64_t incoming_fee = 0;
  sim::SimTime at = 0.0;
};

class Mempool {
 public:
  enum class Admission : std::uint8_t {
    kNeverSeen,   // insert() was never called for this id
    kResident,    // admitted and still in the pool
    kEvicted,     // admitted, later displaced by a higher-fee arrival
    kRejected,    // seen while full and below the resident minimum fee
  };

  // One arrival-log entry: a transaction this node has seen.
  class Entry {
   public:
    std::uint64_t id() const { return id_; }
    // The transaction as first delivered.
    const Transaction& tx() const { return *tx_; }
    // What the entry keeps alive: the record the transaction was delivered
    // in, or the body bound to the entry since (see bind()).
    const std::shared_ptr<const void>& record() const { return record_; }
    sim::SimTime arrived() const { return arrived_; }
    Admission state() const { return state_; }
    bool bound() const { return bound_; }
    bool forwarded() const { return forwarded_; }

   private:
    friend class Mempool;
    Entry(std::shared_ptr<const void> record, const Transaction& tx,
          sim::SimTime arrived)
        : record_(std::move(record)), tx_(&tx), id_(tx.id), arrived_(arrived) {}

    std::shared_ptr<const void> record_;
    const Transaction* tx_;
    std::uint64_t id_;  // tx_->id, so index probes read no record
    sim::SimTime arrived_;
    Admission state_ = Admission::kResident;
    bool bound_ = false;
    bool forwarded_ = false;
  };

  // Bounds the resident set; 0 (default) keeps the pool unbounded, which is
  // byte-for-byte the historical behaviour. Call before the first insert.
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }

  // Records `tx`, which lives inside `record`: the entry shares ownership of
  // the record instead of copying the transaction. Returns true when the
  // transaction was never seen before (fresh) — the relay/dedup signal.
  // Whether the fresh transaction was *admitted* to the resident set is a
  // separate, fee-priority decision under bounded capacity; admission_of()
  // reports it. A repeat keeps the first delivery's entry as it was.
  bool insert(std::shared_ptr<const void> record, const Transaction& tx,
              sim::SimTime now);

  // The entry of `tx_id` in any state; nullptr when never seen.
  const Entry* find(std::uint64_t tx_id) const;
  // Resident right now (admitted and not evicted).
  bool contains(std::uint64_t tx_id) const;
  // Ever offered via insert(), in any current state.
  bool seen(std::uint64_t tx_id) const { return find(tx_id) != nullptr; }
  // The resident transaction, as first delivered; nullptr when not resident.
  const Transaction* get(std::uint64_t tx_id) const;
  // Resident count (<= capacity when bounded).
  std::size_t size() const { return resident_count_; }

  Admission admission_of(std::uint64_t tx_id) const;

  // Lifetime counters. Conservation invariant (checked by the fuzz suite):
  // admitted_total == size() + evicted_total.
  std::size_t admitted_total() const { return admitted_total_; }
  std::size_t evicted_total() const { return evictions_.size(); }
  std::size_t rejected_total() const { return rejected_total_; }
  const std::vector<Eviction>& eviction_log() const { return evictions_; }

  // The arrival log: one entry per transaction, in first-insertion order,
  // admitted or not. Front-running analysis reads this; block building
  // filters it down to residents.
  const std::deque<Entry>& arrival_log() const;
  // Negative when never seen.
  sim::SimTime arrival_time(std::uint64_t tx_id) const;
  // Position of tx in the arrival log while resident; SIZE_MAX when absent
  // (never seen, evicted or rejected — an evicted victim has no
  // block position left to defend, which is exactly the displacement the
  // attacker economics measure).
  std::size_t arrival_position(std::uint64_t tx_id) const;

  // The relay record. bind() makes `body` the record of `tx_id`'s entry the
  // first time and returns true; later calls keep the first body. The entry
  // keeps reading the transaction it was first delivered with: when that
  // lives in another record (the origin's own, a decoded batch), one owner
  // keeps both alive. mark_forwarded() returns false when the entry was
  // marked before. Both require seen(tx_id).
  bool bind(std::uint64_t tx_id, std::shared_ptr<const void> body);
  bool mark_forwarded(std::uint64_t tx_id);

  // LØ commitments: register before the body is known. First registration
  // fixes the commitment's position in the commitment arrival log, which
  // is the order LØ's witnesses hold miners to.
  void add_commitment(const Commitment& c);
  bool has_commitment(const crypto::Digest& tx_hash) const;
  std::size_t commitment_count() const { return commitments_.size(); }
  // Position of the commitment in arrival order; SIZE_MAX when absent.
  std::size_t commitment_position(const crypto::Digest& tx_hash) const;

  // Reconciliation digest: sorted *resident* tx ids (compact form of LØ's
  // set reconciliation — evicted bodies are gone and must not be offered).
  // `missing_from` returns ids present here and absent in the peer's digest.
  std::vector<std::uint64_t> digest() const;
  std::vector<std::uint64_t> missing_from(
      const std::vector<std::uint64_t>& peer_digest) const;

 private:
  // Strict (fee, id) priority order used for both eviction choice and the
  // admit-over-minimum rule; id breaks fee ties so the resident set is a
  // pure function of the offered set.
  static bool outranks(std::uint64_t fee_a, std::uint64_t id_a,
                       std::uint64_t fee_b, std::uint64_t id_b) {
    if (fee_a != fee_b) return fee_a > fee_b;
    return id_a > id_b;
  }

  // Reads the id at a log position for the index.
  auto id_at() const {
    return [this](std::size_t pos) { return (*log_)[pos].id_; };
  }
  Entry* find_mut(std::uint64_t tx_id);
  void admit(Entry& entry);

  std::size_t capacity_ = 0;
  std::size_t resident_count_ = 0;
  std::size_t admitted_total_ = 0;
  std::size_t rejected_total_ = 0;

  // Created by the first insert: an empty std::deque already allocates,
  // and every node builds its pool during set-up.
  std::optional<std::deque<Entry>> log_;
  // tx id -> log position.
  PositionIndex index_;
  // Residents as a (fee, id) min-heap, filled only under a capacity.
  // Eviction is its one reader, and a resident only ever leaves it as the
  // minimum, so the front is always the eviction candidate.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fee_index_;
  std::vector<Eviction> evictions_;

  struct DigestHash {
    std::size_t operator()(const crypto::Digest& d) const {
      return static_cast<std::size_t>(crypto::digest_prefix_u64(d));
    }
  };
  // Commitment -> its position in commitment arrival order.
  std::unordered_map<crypto::Digest, std::size_t, DigestHash> commitments_;
};

static_assert(sizeof(Mempool::Entry) <= 48,
              "an arrival-log entry is one flat 48-byte record");

}  // namespace hermes::mempool
