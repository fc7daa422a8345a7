// Property tests for fee-priority admission under bounded capacity.
//
// The model: with capacity C, the resident set always equals the top-C
// slice of everything offered under the strict (fee desc, id desc) order —
// a pure function of the offered SET, independent of the order in which
// the offers arrived. The tests check the pool against a reference model
// recomputed from the whole offered set, across seeded random operation
// streams and across permutations of the same offer set.
#include "mempool/mempool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "insert.hpp"
#include "support/rng.hpp"

namespace hermes::mempool {
namespace {

using testing::insert;

Transaction make_tx(net::NodeId sender, std::uint64_t seq,
                    std::uint64_t fee) {
  Transaction tx;
  tx.sender = sender;
  tx.sender_seq = seq;
  tx.id = Transaction::make_id(sender, seq);
  tx.fee = fee;
  return tx;
}

// The pool's priority order, re-stated independently: fee desc, id desc.
bool outranks(const Transaction& a, const Transaction& b) {
  if (a.fee != b.fee) return a.fee > b.fee;
  return a.id > b.id;
}

// Reference resident set: top-capacity slice of the offered set.
std::set<std::uint64_t> model_residents(std::vector<Transaction> offered,
                                        std::size_t capacity) {
  std::sort(offered.begin(), offered.end(), outranks);
  std::set<std::uint64_t> out;
  for (std::size_t i = 0; i < offered.size() && i < capacity; ++i) {
    out.insert(offered[i].id);
  }
  return out;
}

std::set<std::uint64_t> pool_residents(const Mempool& pool) {
  const auto digest = pool.digest();
  return {digest.begin(), digest.end()};
}

TEST(MempoolPressure, CapacityBoundHoldsAfterEveryInsert) {
  constexpr std::size_t kCapacity = 16;
  Mempool pool;
  pool.set_capacity(kCapacity);
  Rng rng(101);
  for (std::uint64_t i = 0; i < 400; ++i) {
    const auto sender = static_cast<net::NodeId>(rng.uniform_u64(8));
    insert(pool, make_tx(sender, i, rng.uniform_u64(50)),
           static_cast<double>(i));
    ASSERT_LE(pool.size(), kCapacity) << "after insert " << i;
    ASSERT_EQ(pool.digest().size(), pool.size());
  }
  EXPECT_EQ(pool.admitted_total(), pool.size() + pool.evicted_total());
  EXPECT_EQ(pool.admitted_total() + pool.rejected_total(), 400u);
}

TEST(MempoolPressure, ResidentSetMatchesReferenceModelUnderRandomLoad) {
  // The resident set is a pure function of the offered SET — after every
  // insert it equals the model's top-capacity slice.
  constexpr std::size_t kCapacity = 12;
  Mempool pool;
  pool.set_capacity(kCapacity);
  Rng rng(202);
  std::vector<Transaction> offered;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const Transaction tx =
        make_tx(static_cast<net::NodeId>(rng.uniform_u64(6)), i,
                rng.uniform_u64(20));
    offered.push_back(tx);
    insert(pool, tx, static_cast<double>(i));
    ASSERT_EQ(pool_residents(pool), model_residents(offered, kCapacity))
        << "after insert " << i;
  }
  EXPECT_EQ(pool.admitted_total(), pool.size() + pool.evicted_total());
}

TEST(MempoolPressure, EveryEvictionDisplacesTheResidentMinimum) {
  Mempool pool;
  pool.set_capacity(8);
  Rng rng(303);
  for (std::uint64_t i = 0; i < 200; ++i) {
    insert(pool, make_tx(1, i, rng.uniform_u64(30)), static_cast<double>(i));
  }
  EXPECT_GT(pool.evicted_total(), 0u);
  for (const Eviction& ev : pool.eviction_log()) {
    // Fee-lawful: the incoming strictly outranks what it displaced.
    Transaction in = make_tx(0, 0, ev.incoming_fee);
    in.id = ev.incoming_id;
    Transaction out = make_tx(0, 0, ev.evicted_fee);
    out.id = ev.evicted_id;
    EXPECT_TRUE(outranks(in, out))
        << "eviction of " << ev.evicted_id << " by " << ev.incoming_id;
    // The evicted id really left the resident set for good.
    EXPECT_FALSE(pool.contains(ev.evicted_id));
    EXPECT_TRUE(pool.seen(ev.evicted_id));
    EXPECT_EQ(pool.admission_of(ev.evicted_id), Mempool::Admission::kEvicted);
  }
}

TEST(MempoolPressure, ResidentSetInvariantUnderInsertionOrderPermutations) {
  constexpr std::size_t kCapacity = 6;
  // An equal-fee band plus a few distinct fees: ties must break on id, so
  // every permutation of the offer sequence lands the same resident set.
  std::vector<Transaction> txs;
  for (std::uint64_t i = 0; i < 10; ++i) txs.push_back(make_tx(1, i, 7));
  for (std::uint64_t i = 10; i < 16; ++i)
    txs.push_back(make_tx(2, i, 3 + i % 4));

  std::set<std::uint64_t> first;
  Rng rng(404);
  for (int perm = 0; perm < 20; ++perm) {
    std::vector<Transaction> order = txs;
    // Fisher-Yates with the seeded Rng: deterministic permutations.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_u64(i)]);
    }
    Mempool pool;
    pool.set_capacity(kCapacity);
    double now = 0.0;
    for (const Transaction& tx : order) insert(pool, tx, now += 1.0);
    const auto residents = pool_residents(pool);
    ASSERT_EQ(residents.size(), kCapacity);
    ASSERT_EQ(residents, model_residents(txs, kCapacity))
        << "permutation " << perm;
    if (perm == 0) {
      first = residents;
    } else {
      ASSERT_EQ(residents, first) << "permutation " << perm;
    }
    EXPECT_EQ(pool.admitted_total(), pool.size() + pool.evicted_total());
  }
}

TEST(MempoolPressure, RejectionBelowResidentMinimumLeavesLogClean) {
  Mempool pool;
  pool.set_capacity(2);
  insert(pool, make_tx(1, 1, 50), 1.0);
  insert(pool, make_tx(1, 2, 60), 2.0);
  const std::size_t evictions = pool.evicted_total();
  const Transaction low = make_tx(1, 3, 1);
  // Fresh (seen-wise) but below the resident minimum: rejected, no
  // eviction, and it never enters the arrival log's resident view.
  EXPECT_TRUE(insert(pool, low, 3.0));
  EXPECT_EQ(pool.admission_of(low.id), Mempool::Admission::kRejected);
  EXPECT_FALSE(pool.contains(low.id));
  EXPECT_TRUE(pool.seen(low.id));
  EXPECT_EQ(pool.evicted_total(), evictions);
  EXPECT_EQ(pool.rejected_total(), 1u);
  EXPECT_EQ(pool.arrival_position(low.id), SIZE_MAX);
}

TEST(MempoolPressure, UnboundedPoolNeverEvictsOrRejects) {
  Mempool pool;  // capacity 0: historical unbounded behaviour
  Rng rng(505);
  for (std::uint64_t i = 0; i < 200; ++i) {
    insert(pool, make_tx(1, i, rng.uniform_u64(10)), static_cast<double>(i));
  }
  EXPECT_EQ(pool.size(), 200u);
  EXPECT_EQ(pool.evicted_total(), 0u);
  EXPECT_EQ(pool.rejected_total(), 0u);
  EXPECT_EQ(pool.admitted_total(), 200u);
}

}  // namespace
}  // namespace hermes::mempool
