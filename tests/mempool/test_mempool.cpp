#include "mempool/mempool.hpp"

#include <gtest/gtest.h>

namespace hermes::mempool {
namespace {

Transaction make_tx(net::NodeId sender, std::uint64_t seq) {
  Transaction tx;
  tx.sender = sender;
  tx.sender_seq = seq;
  tx.id = Transaction::make_id(sender, seq);
  return tx;
}

TEST(Transaction, IdEncodesSenderAndSeq) {
  const std::uint64_t id = Transaction::make_id(7, 42);
  EXPECT_EQ(id >> 32, 7u);
  EXPECT_EQ(id & 0xffffffff, 42u);
}

TEST(Transaction, HashBindsFields) {
  Transaction a = make_tx(1, 1);
  Transaction b = make_tx(1, 2);
  Transaction c = make_tx(2, 1);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_EQ(a.hash(), make_tx(1, 1).hash());
}

TEST(Mempool, InsertAndQuery) {
  Mempool pool;
  const Transaction tx = make_tx(1, 1);
  EXPECT_TRUE(pool.insert(tx, 10.0));
  EXPECT_TRUE(pool.contains(tx.id));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_DOUBLE_EQ(pool.arrival_time(tx.id), 10.0);
  const auto fetched = pool.get(tx.id);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->sender, 1u);
}

TEST(Mempool, DuplicateInsertKeepsFirstArrival) {
  Mempool pool;
  const Transaction tx = make_tx(1, 1);
  EXPECT_TRUE(pool.insert(tx, 10.0));
  EXPECT_FALSE(pool.insert(tx, 20.0));
  EXPECT_DOUBLE_EQ(pool.arrival_time(tx.id), 10.0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, ArrivalOrderAndPositions) {
  Mempool pool;
  const Transaction a = make_tx(1, 1), b = make_tx(2, 1), c = make_tx(3, 1);
  pool.insert(b, 1.0);
  pool.insert(a, 2.0);
  pool.insert(c, 3.0);
  EXPECT_EQ(pool.arrival_order(),
            (std::vector<std::uint64_t>{b.id, a.id, c.id}));
  EXPECT_EQ(pool.arrival_position(b.id), 0u);
  EXPECT_EQ(pool.arrival_position(a.id), 1u);
  EXPECT_EQ(pool.arrival_position(c.id), 2u);
  EXPECT_EQ(pool.arrival_position(999), SIZE_MAX);
}

TEST(Mempool, Commitments) {
  Mempool pool;
  const Transaction tx = make_tx(4, 9);
  EXPECT_FALSE(pool.has_commitment(tx.hash()));
  pool.add_commitment(Commitment{tx.hash()});
  EXPECT_TRUE(pool.has_commitment(tx.hash()));
  EXPECT_EQ(pool.commitment_count(), 1u);
  // Idempotent.
  pool.add_commitment(Commitment{tx.hash()});
  EXPECT_EQ(pool.commitment_count(), 1u);
}

TEST(Mempool, DigestSortedAndReconciliation) {
  Mempool a, b;
  const Transaction t1 = make_tx(1, 1), t2 = make_tx(1, 2), t3 = make_tx(2, 1);
  a.insert(t2, 1.0);
  a.insert(t1, 2.0);
  a.insert(t3, 3.0);
  b.insert(t1, 1.0);
  const auto digest_b = b.digest();
  EXPECT_TRUE(std::is_sorted(digest_b.begin(), digest_b.end()));
  const auto missing = a.missing_from(digest_b);
  // a has t1, t2, t3; b has t1 -> b misses t2 and t3.
  EXPECT_EQ(missing.size(), 2u);
  EXPECT_TRUE(std::find(missing.begin(), missing.end(), t2.id) != missing.end());
  EXPECT_TRUE(std::find(missing.begin(), missing.end(), t3.id) != missing.end());
  // Symmetric direction: b misses nothing that a has... b -> a.
  EXPECT_TRUE(b.missing_from(a.digest()).empty());
}

TEST(Mempool, GetAbsentReturnsNullopt) {
  Mempool pool;
  EXPECT_FALSE(pool.get(123).has_value());
  EXPECT_DOUBLE_EQ(pool.arrival_time(123), -1.0);
}

}  // namespace
}  // namespace hermes::mempool
