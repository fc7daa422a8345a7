#include "mempool/mempool.hpp"

#include <gtest/gtest.h>

#include "insert.hpp"

namespace hermes::mempool {
namespace {

using testing::insert;

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
  EXPECT_TRUE(insert(pool, tx, 10.0));
  EXPECT_TRUE(pool.contains(tx.id));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_DOUBLE_EQ(pool.arrival_time(tx.id), 10.0);
  const Transaction* fetched = pool.get(tx.id);
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(fetched->sender, 1u);
}

TEST(Mempool, DuplicateInsertKeepsFirstArrival) {
  Mempool pool;
  const Transaction tx = make_tx(1, 1);
  EXPECT_TRUE(insert(pool, tx, 10.0));
  EXPECT_FALSE(insert(pool, tx, 20.0));
  EXPECT_DOUBLE_EQ(pool.arrival_time(tx.id), 10.0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, ArrivalOrderAndPositions) {
  Mempool pool;
  const Transaction a = make_tx(1, 1), b = make_tx(2, 1), c = make_tx(3, 1);
  insert(pool, b, 1.0);
  insert(pool, a, 2.0);
  insert(pool, c, 3.0);
  std::vector<std::uint64_t> order;
  for (const Mempool::Entry& entry : pool.arrival_log()) {
    order.push_back(entry.id());
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{b.id, a.id, c.id}));
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
  insert(a, t2, 1.0);
  insert(a, t1, 2.0);
  insert(a, t3, 3.0);
  insert(b, t1, 1.0);
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

TEST(Mempool, EntrySharesTheRecordItWasDeliveredIn) {
  // A received body: the transaction sits inside it, after other fields.
  struct Body {
    int header = 7;
    Transaction tx;
  };
  auto built = std::make_shared<Body>();
  built->tx = make_tx(3, 4);
  const std::shared_ptr<const Body> body = built;
  built.reset();
  Mempool pool;
  ASSERT_TRUE(pool.insert(body, body->tx, 1.0));
  // The pool shares the body and reads the transaction in it: no copy.
  EXPECT_EQ(body.use_count(), 2);
  EXPECT_EQ(pool.get(body->tx.id), &body->tx);
  const Mempool::Entry* entry = pool.find(body->tx.id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->record().get(), body.get());
  EXPECT_FALSE(entry->bound());
  // A later copy in another body is not kept.
  auto other = std::make_shared<Body>();
  other->tx = body->tx;
  other->tx.fee = 9;
  EXPECT_FALSE(pool.insert(other, other->tx, 2.0));
  EXPECT_EQ(other.use_count(), 1);
  EXPECT_EQ(pool.get(body->tx.id), &body->tx);
  EXPECT_DOUBLE_EQ(pool.arrival_time(body->tx.id), 1.0);
}

TEST(Mempool, BindingABodyKeepsTheFirstDeliveredTransaction) {
  // An entry created from the origin's own record (fee 5), then bound to a
  // body whose copy of the transaction differs in what its hash leaves
  // out: fee and creation time.
  struct Body {
    Transaction tx;
  };
  Mempool pool;
  pool.set_capacity(2);
  Transaction first = make_tx(1, 1);
  first.fee = 5;
  auto own = std::make_shared<const Transaction>(first);
  const std::weak_ptr<const Transaction> own_alive = own;
  ASSERT_TRUE(pool.insert(own, *own, 1.0));
  own.reset();
  Transaction rival = make_tx(2, 1);
  rival.fee = 7;
  insert(pool, rival, 2.0);

  auto body = std::make_shared<Body>();
  body->tx = first;
  body->tx.fee = 50;
  body->tx.created_at = 9.0;
  EXPECT_TRUE(pool.bind(first.id, body));
  const Mempool::Entry* entry = pool.find(first.id);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->bound());
  EXPECT_EQ(entry->record().get(), body.get());
  // The entry still reads the first delivery, which it keeps alive.
  EXPECT_FALSE(own_alive.expired());
  ASSERT_NE(pool.get(first.id), nullptr);
  EXPECT_EQ(pool.get(first.id), own_alive.lock().get());
  EXPECT_EQ(pool.get(first.id)->fee, 5u);
  EXPECT_DOUBLE_EQ(pool.get(first.id)->created_at, 0.0);
  EXPECT_EQ(pool.admission_of(first.id), Mempool::Admission::kResident);
  // A second binding keeps the first body.
  EXPECT_FALSE(pool.bind(first.id, std::make_shared<Body>(*body)));
  EXPECT_EQ(pool.find(first.id)->record().get(), body.get());

  // The fee index still ranks the entry at 5: a fee-6 arrival evicts it,
  // not the fee-7 rival.
  Transaction mid = make_tx(3, 1);
  mid.fee = 6;
  EXPECT_TRUE(insert(pool, mid, 3.0));
  EXPECT_EQ(pool.admission_of(first.id), Mempool::Admission::kEvicted);
  EXPECT_TRUE(pool.contains(rival.id));
  ASSERT_EQ(pool.eviction_log().size(), 1u);
  EXPECT_EQ(pool.eviction_log()[0].evicted_id, first.id);
  EXPECT_EQ(pool.eviction_log()[0].evicted_fee, 5u);
  EXPECT_EQ(pool.eviction_log()[0].incoming_id, mid.id);
}

TEST(Mempool, ForwardedMarkIsSetOnce) {
  Mempool pool;
  const Transaction tx = make_tx(1, 1);
  insert(pool, tx, 1.0);
  EXPECT_FALSE(pool.find(tx.id)->forwarded());
  EXPECT_TRUE(pool.mark_forwarded(tx.id));
  EXPECT_FALSE(pool.mark_forwarded(tx.id));
  EXPECT_TRUE(pool.find(tx.id)->forwarded());
  // Binding and forwarding change nothing a query reads.
  EXPECT_TRUE(pool.contains(tx.id));
  EXPECT_EQ(pool.get(tx.id)->id, tx.id);
  EXPECT_EQ(pool.arrival_position(tx.id), 0u);
}

TEST(Mempool, GetAbsentReturnsNull) {
  Mempool pool;
  EXPECT_EQ(pool.get(123), nullptr);
  EXPECT_DOUBLE_EQ(pool.arrival_time(123), -1.0);
}

}  // namespace
}  // namespace hermes::mempool
