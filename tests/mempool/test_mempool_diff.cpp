// Differential test of the mempool against a plain reference model: a
// std::map of first deliveries, an arrival vector and an ordered resident
// set. Random insert streams with repeated ids (re-offered with another
// fee and creation time) run at capacity 0 and 1-8, over more than 5,000
// distinct ids so the open-addressed index grows from 16 slots to 16,384;
// every query the pool answers is compared with the model's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "mempool/mempool.hpp"
#include "support/rng.hpp"

namespace hermes::mempool {
namespace {

using Admission = Mempool::Admission;

struct Model {
  struct First {
    std::shared_ptr<const Transaction> record;  // what the pool must read
    sim::SimTime arrived = 0.0;
    std::size_t position = 0;
    Admission state = Admission::kResident;
  };

  explicit Model(std::size_t cap) : capacity(cap) {}

  bool insert(const std::shared_ptr<const Transaction>& record,
              sim::SimTime now) {
    const Transaction& tx = *record;
    if (first.count(tx.id) > 0) return false;
    First f{record, now, order.size(), Admission::kResident};
    order.push_back(tx.id);
    if (capacity == 0 || residents.size() < capacity) {
      residents.insert({tx.fee, tx.id});
      ++admitted;
    } else {
      const auto [min_fee, min_id] = *residents.begin();
      const bool outranks =
          tx.fee != min_fee ? tx.fee > min_fee : tx.id > min_id;
      if (!outranks) {
        f.state = Admission::kRejected;
        ++rejected;
      } else {
        residents.erase(residents.begin());
        first[min_id].state = Admission::kEvicted;
        evictions.push_back(Eviction{min_id, min_fee, tx.id, tx.fee, now});
        residents.insert({tx.fee, tx.id});
        ++admitted;
      }
    }
    first.emplace(tx.id, std::move(f));
    return true;
  }

  std::vector<std::uint64_t> digest() const {
    std::vector<std::uint64_t> out;
    for (const auto& [fee, id] : residents) out.push_back(id);
    std::sort(out.begin(), out.end());
    return out;
  }

  std::size_t capacity;
  std::map<std::uint64_t, First> first;
  std::vector<std::uint64_t> order;
  std::set<std::pair<std::uint64_t, std::uint64_t>> residents;  // (fee, id)
  std::vector<Eviction> evictions;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
};

bool same_eviction(const Eviction& a, const Eviction& b) {
  return a.evicted_id == b.evicted_id && a.evicted_fee == b.evicted_fee &&
         a.incoming_id == b.incoming_id && a.incoming_fee == b.incoming_fee &&
         a.at == b.at;
}

// Every per-id query for `id`, seen or not.
void expect_same_id(const Mempool& pool, const Model& model, std::uint64_t id) {
  const auto it = model.first.find(id);
  const bool seen = it != model.first.end();
  const bool resident = seen && it->second.state == Admission::kResident;
  ASSERT_EQ(pool.seen(id), seen) << id;
  ASSERT_EQ(pool.contains(id), resident) << id;
  ASSERT_EQ(pool.admission_of(id),
            seen ? it->second.state : Admission::kNeverSeen)
      << id;
  ASSERT_EQ(pool.arrival_time(id), seen ? it->second.arrived : -1.0) << id;
  ASSERT_EQ(pool.arrival_position(id),
            resident ? it->second.position : SIZE_MAX)
      << id;
  // get() reads the first delivery's own record: the same object, no copy.
  ASSERT_EQ(pool.get(id), resident ? it->second.record.get() : nullptr) << id;
  const Mempool::Entry* entry = pool.find(id);
  ASSERT_EQ(entry != nullptr, seen) << id;
  if (seen) {
    ASSERT_EQ(&entry->tx(), it->second.record.get()) << id;
    ASSERT_EQ(entry->record().get(), it->second.record.get()) << id;
  }
}

// The whole state: log, digest, reconciliation, evictions and counters.
void expect_same_state(const Mempool& pool, const Model& model, Rng& rng) {
  ASSERT_EQ(pool.arrival_log().size(), model.order.size());
  for (std::size_t pos = 0; pos < model.order.size(); ++pos) {
    const Mempool::Entry& entry = pool.arrival_log()[pos];
    ASSERT_EQ(entry.id(), model.order[pos]) << "log position " << pos;
    const Model::First& f = model.first.at(entry.id());
    ASSERT_EQ(entry.state(), f.state) << entry.id();
    ASSERT_EQ(entry.arrived(), f.arrived) << entry.id();
    ASSERT_EQ(&entry.tx(), f.record.get()) << entry.id();
  }
  const std::vector<std::uint64_t> digest = model.digest();
  ASSERT_EQ(pool.digest(), digest);
  // A peer digest of every other resident plus ids never offered here.
  std::vector<std::uint64_t> peer;
  std::vector<std::uint64_t> missing;
  for (std::size_t i = 0; i < digest.size(); ++i) {
    (i % 2 == 0 ? peer : missing).push_back(digest[i]);
  }
  for (int i = 0; i < 8; ++i) peer.push_back(rng.next_u64() | 1ULL << 63);
  std::sort(peer.begin(), peer.end());
  ASSERT_EQ(pool.missing_from(peer), missing);
  ASSERT_EQ(pool.eviction_log().size(), model.evictions.size());
  for (std::size_t i = 0; i < model.evictions.size(); ++i) {
    ASSERT_TRUE(same_eviction(pool.eviction_log()[i], model.evictions[i]))
        << "eviction " << i;
  }
  ASSERT_EQ(pool.size(), model.residents.size());
  ASSERT_EQ(pool.admitted_total(), model.admitted);
  ASSERT_EQ(pool.evicted_total(), model.evictions.size());
  ASSERT_EQ(pool.rejected_total(), model.rejected);
}

void run_stream(std::size_t capacity, std::uint64_t seed) {
  constexpr std::size_t kDistinct = 5200;
  Rng rng(seed);
  // Ids as the simulator makes them, sender << 32 | seq, from 64 senders.
  std::vector<std::uint64_t> ids;
  std::set<std::uint64_t> drawn;
  while (ids.size() < kDistinct) {
    const auto sender = static_cast<net::NodeId>(rng.uniform_u64(64));
    const std::uint64_t id =
        Transaction::make_id(sender, 1 + rng.uniform_u64(1u << 20));
    if (drawn.insert(id).second) ids.push_back(id);
  }
  Mempool pool;
  pool.set_capacity(capacity);
  Model model(capacity);
  std::size_t next_fresh = 0;
  sim::SimTime now = 0.0;
  std::size_t step = 0;
  while (next_fresh < ids.size()) {
    // One offer in four repeats an id offered before, with another fee and
    // creation time: the first delivery must stand.
    const bool repeat = next_fresh > 0 && rng.uniform_u64(4) == 0;
    Transaction tx;
    tx.id = repeat ? ids[rng.uniform_u64(next_fresh)] : ids[next_fresh++];
    tx.sender = static_cast<net::NodeId>(tx.id >> 32);
    tx.sender_seq = tx.id & 0xffffffffULL;
    tx.fee = rng.uniform_u64(24);
    tx.created_at = now;
    now += 0.5;
    auto record = std::make_shared<const Transaction>(tx);
    const bool fresh = model.insert(record, now);
    ASSERT_EQ(pool.insert(record, *record, now), fresh) << tx.id;
    ASSERT_NO_FATAL_FAILURE(expect_same_id(pool, model, tx.id));
    ASSERT_NO_FATAL_FAILURE(expect_same_id(pool, model, ids[rng.uniform_u64(
                                                            ids.size())]));
    ASSERT_NO_FATAL_FAILURE(expect_same_id(pool, model, rng.next_u64()));
    if (++step % 331 == 0) {
      ASSERT_NO_FATAL_FAILURE(expect_same_state(pool, model, rng));
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_same_state(pool, model, rng));
  for (std::uint64_t id : ids) {
    ASSERT_NO_FATAL_FAILURE(expect_same_id(pool, model, id));
  }
}

TEST(MempoolDiff, ProbesWrapPastTheLastSlot) {
  // Eight ids whose probes all start at the last of the first table's 16
  // slots (the index hashes with the 64-bit Fibonacci multiplier): the
  // second and later ones wrap to slot 0 onwards, and a ninth id of that
  // slot, never inserted, walks the whole run before it meets an empty
  // slot. The eighth fills the table to load 1/2 without growing it.
  std::vector<std::uint64_t> last_slot;
  for (std::uint64_t seq = 1; last_slot.size() < 9; ++seq) {
    const std::uint64_t id = Transaction::make_id(5, seq);
    if ((id * 0x9e3779b97f4a7c15ULL) >> 60 == 15) last_slot.push_back(id);
  }
  Mempool pool;
  Model model(0);
  for (std::size_t i = 0; i < 8; ++i) {
    Transaction tx;
    tx.id = last_slot[i];
    auto record = std::make_shared<const Transaction>(tx);
    ASSERT_TRUE(model.insert(record, static_cast<double>(i)));
    ASSERT_TRUE(pool.insert(record, *record, static_cast<double>(i)));
  }
  for (std::uint64_t id : last_slot) {
    ASSERT_NO_FATAL_FAILURE(expect_same_id(pool, model, id));
  }
  Rng rng(7);
  ASSERT_NO_FATAL_FAILURE(expect_same_state(pool, model, rng));
}

TEST(MempoolDiff, UnboundedMatchesReferenceModel) {
  run_stream(/*capacity=*/0, /*seed=*/71);
}

TEST(MempoolDiff, EveryCapacityFromOneToEightMatchesReferenceModel) {
  for (std::size_t capacity = 1; capacity <= 8; ++capacity) {
    SCOPED_TRACE(capacity);
    run_stream(capacity, 100 + capacity);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hermes::mempool
