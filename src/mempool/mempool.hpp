// Per-node mempool with LØ-style commitments, reconciliation digests and
// fee-priority admission under a bounded capacity.
//
// The mempool records the order in which transactions became known to the
// node (the arrival log), which is what the front-running experiments
// examine: an attack succeeds when the adversarial transaction precedes the
// victim transaction in the block-inclusion order, which miners derive from
// their arrival logs.
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
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mempool/transaction.hpp"

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
  // Bounds the resident set; 0 (default) keeps the pool unbounded, which is
  // byte-for-byte the historical behaviour. Call before the first insert.
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }

  // Returns true when the transaction was never seen before (fresh) — the
  // relay/dedup signal. Whether the fresh transaction was *admitted* to the
  // resident set is a separate, fee-priority decision under bounded
  // capacity; admission_of() reports it.
  bool insert(const Transaction& tx, sim::SimTime now);

  // Resident right now (admitted and not evicted).
  bool contains(std::uint64_t tx_id) const;
  // Ever offered via insert(), in any current state.
  bool seen(std::uint64_t tx_id) const;
  std::optional<Transaction> get(std::uint64_t tx_id) const;
  // Resident count (<= capacity when bounded).
  std::size_t size() const { return resident_count_; }

  enum class Admission : std::uint8_t {
    kNeverSeen,   // insert() was never called for this id
    kResident,    // admitted and still in the pool
    kEvicted,     // admitted, later displaced by a higher-fee arrival
    kRejected,    // seen while full and below the resident minimum fee
  };
  Admission admission_of(std::uint64_t tx_id) const;

  // Lifetime counters. Conservation invariant (checked by the fuzz suite):
  // admitted_total == size() + evicted_total.
  std::size_t admitted_total() const { return admitted_total_; }
  std::size_t evicted_total() const { return evictions_.size(); }
  std::size_t rejected_total() const { return rejected_total_; }
  const std::vector<Eviction>& eviction_log() const { return evictions_; }

  // Arrival order (first insertion, admitted or not). Front-running
  // analysis reads this; block building filters it down to residents.
  const std::vector<std::uint64_t>& arrival_order() const {
    return arrival_order_;
  }
  sim::SimTime arrival_time(std::uint64_t tx_id) const;
  // Position of tx in the arrival log while resident; SIZE_MAX when absent
  // (never seen, evicted or rejected — an evicted victim has no
  // block position left to defend, which is exactly the displacement the
  // attacker economics measure).
  std::size_t arrival_position(std::uint64_t tx_id) const;

  // LØ commitments: register before the body is known. First registration
  // fixes the commitment's position in the commitment arrival log, which
  // is the order LØ's witnesses hold miners to.
  void add_commitment(const Commitment& c);
  bool has_commitment(const crypto::Digest& tx_hash) const;
  std::size_t commitment_count() const { return commitment_order_.size(); }
  // Position of the commitment in arrival order; SIZE_MAX when absent.
  std::size_t commitment_position(const crypto::Digest& tx_hash) const;

  // Reconciliation digest: sorted *resident* tx ids (compact form of LØ's
  // set reconciliation — evicted bodies are gone and must not be offered).
  // `missing_from` returns ids present here and absent in the peer's digest.
  std::vector<std::uint64_t> digest() const;
  std::vector<std::uint64_t> missing_from(
      const std::vector<std::uint64_t>& peer_digest) const;

 private:
  struct Entry {
    Transaction tx;
    sim::SimTime arrived;
    std::size_t position;
    Admission state = Admission::kResident;
  };

  // Strict (fee, id) priority order used for both eviction choice and the
  // admit-over-minimum rule; id breaks fee ties so the resident set is a
  // pure function of the offered set.
  static bool outranks(std::uint64_t fee_a, std::uint64_t id_a,
                       std::uint64_t fee_b, std::uint64_t id_b) {
    if (fee_a != fee_b) return fee_a > fee_b;
    return id_a > id_b;
  }

  void admit(Entry& entry);

  std::size_t capacity_ = 0;
  std::size_t resident_count_ = 0;
  std::size_t admitted_total_ = 0;
  std::size_t rejected_total_ = 0;

  std::unordered_map<std::uint64_t, Entry> entries_;
  std::vector<std::uint64_t> arrival_order_;
  // Residents ordered by (fee, id): begin() is the eviction candidate.
  std::set<std::pair<std::uint64_t, std::uint64_t>> fee_index_;
  std::vector<Eviction> evictions_;

  // hex of tx hash -> position in commitment arrival order.
  std::unordered_map<std::string, std::size_t> commitments_;
  std::vector<std::string> commitment_order_;
};

}  // namespace hermes::mempool
