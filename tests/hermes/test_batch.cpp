// Erasure-coded batch dissemination tests (Section VIII-D extension).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "../protocols/harness.hpp"
#include "hermes/hermes_node.hpp"

namespace hermes::hermes_proto {
namespace {

using protocols::Behavior;
using protocols::Transaction;
using protocols::testing::World;

HermesConfig batch_config(std::size_t f = 1, std::size_t k = 5) {
  HermesConfig config;
  config.f = f;
  config.k = k;
  config.builder.annealing.initial_temperature = 5.0;
  config.builder.annealing.min_temperature = 1.0;
  config.builder.annealing.cooling_rate = 0.8;
  config.builder.annealing.moves_per_temperature = 4;
  return config;
}

// Batch member transactions live in their own id namespace (high bit set):
// the committee sequences the *batch*, not its members, so member ids must
// not consume the sender's TRS-facing sequence counter.
std::vector<Transaction> make_batch(World& w, net::NodeId sender,
                                    std::size_t count) {
  static std::uint64_t next_member_seq = 0x800000;
  std::vector<Transaction> txs;
  for (std::size_t i = 0; i < count; ++i) {
    Transaction tx;
    tx.sender = sender;
    tx.sender_seq = ++next_member_seq;
    tx.id = mempool::Transaction::make_id(sender, tx.sender_seq);
    tx.created_at = w.ctx->engine.now();
    w.ctx->tracker.on_created(tx.id, tx.created_at);
    txs.push_back(tx);
  }
  return txs;
}

TEST(BatchSerialization, RoundTrip) {
  Transaction a;
  a.sender = 3;
  a.sender_seq = 7;
  a.id = mempool::Transaction::make_id(3, 7);
  a.payload_bytes = 250;
  Transaction b;
  b.sender = 9;
  b.sender_seq = 1;
  b.id = mempool::Transaction::make_id(9, 1);
  b.payload_bytes = 100;
  b.adversarial = true;
  b.victim_id = a.id;
  const std::vector<Transaction> batch{a, b};
  const Bytes encoded = mempool::serialize_batch(batch);
  const auto decoded = mempool::deserialize_batch(encoded);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].id, a.id);
  EXPECT_EQ((*decoded)[1].victim_id, a.id);
  EXPECT_TRUE((*decoded)[1].adversarial);
  EXPECT_EQ((*decoded)[0].payload_bytes, 250u);
}

TEST(BatchSerialization, RejectsTruncation) {
  Transaction a;
  a.id = 1;
  Bytes encoded = mempool::serialize_batch(std::vector<Transaction>{a});
  encoded.pop_back();
  EXPECT_FALSE(mempool::deserialize_batch(encoded).has_value());
}

TEST(BatchSerialization, RejectsMemberCountPastTheInput) {
  // A 9-byte input claiming 2^62 members: rejected before any allocation.
  Bytes encoded;
  put_varint(encoded, std::uint64_t{1} << 62);
  ASSERT_EQ(encoded.size(), 9u);
  EXPECT_FALSE(mempool::deserialize_batch(encoded).has_value());
}

// Mutation harness for the batch decoder: every truncation and every
// single-bit flip of a serialized 5-member batch (fee appendix included)
// must either be rejected or decode to no more members than its input can
// hold, each at least 62 bytes. Nothing may throw.
TEST(BatchDecoderMutation, TruncationsAndBitFlips) {
  std::vector<Transaction> batch;
  for (std::uint64_t i = 0; i < 5; ++i) {
    Transaction tx;
    tx.sender = static_cast<net::NodeId>(i + 1);
    tx.sender_seq = 10 + i;
    tx.id = mempool::Transaction::make_id(tx.sender, tx.sender_seq);
    tx.payload_bytes = 100 + 50 * i;
    tx.fee = 3 * i;
    tx.adversarial = i == 4;
    tx.victim_id = tx.adversarial ? batch.front().id : 0;
    batch.push_back(tx);
  }
  const Bytes bytes = mempool::serialize_batch(batch);
  ASSERT_TRUE(mempool::deserialize_batch(bytes).has_value());
  const auto expect_bounded = [](BytesView input, const std::string& what) {
    std::optional<std::vector<Transaction>> decoded;
    ASSERT_NO_THROW(decoded = mempool::deserialize_batch(input)) << what;
    if (!decoded) return;
    ASSERT_LE(decoded->size() * 62, input.size()) << what;
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    expect_bounded(BytesView(bytes.data(), len),
                   "length " + std::to_string(len));
  }
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    Bytes flipped = bytes;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_bounded(flipped, "bit " + std::to_string(bit));
  }
}

TEST(BatchSerialization, HashBindsContent) {
  Transaction a;
  a.id = 1;
  Transaction b;
  b.id = 2;
  const std::vector<Transaction> one{a};
  const std::vector<Transaction> two{a, b};
  EXPECT_NE(mempool::batch_hash(one), mempool::batch_hash(two));
}

TEST(HermesBatch, DeliversWholeBatchToEveryone) {
  HermesProtocol protocol(batch_config());
  World w(40, protocol);
  w.start();
  auto* sender = dynamic_cast<HermesNode*>(&w.ctx->node(4));
  const auto txs = make_batch(w, 4, 10);
  sender->submit_batch(txs);
  w.run_ms(8000);
  for (const auto& tx : txs) {
    EXPECT_DOUBLE_EQ(protocols::honest_coverage(*w.ctx, tx), 1.0) << tx.id;
  }
  // Everyone decoded exactly one batch.
  for (net::NodeId v = 0; v < 40; ++v) {
    EXPECT_EQ(static_cast<const HermesNode&>(w.ctx->node(v)).batches_decoded(),
              1u)
        << v;
  }
}

TEST(HermesBatch, SurvivesLossOfParityManyShards) {
  // f parity shards: even if one overlay's whole stream dies (droppers at
  // its entries), the batch reconstructs from the remaining shards.
  HermesProtocol protocol(batch_config(1, 5));
  World w(50, protocol, 21);
  w.start();
  // Kill one overlay stream: make all entries of overlay (seed+?) droppers.
  // We cannot know the seed-selected overlay upfront, so instead drop one
  // fixed node from each overlay's entry set — at most one shard stream is
  // degraded, within the parity budget.
  const auto shared = protocol.shared();
  w.ctx->behaviors[shared->overlays[0].entry_points()[0]] = Behavior::kDropper;
  auto* sender = dynamic_cast<HermesNode*>(
      &w.ctx->node(w.ctx->random_honest(w.ctx->rng)));
  const auto txs = make_batch(w, sender->id(), 8);
  sender->submit_batch(txs);
  w.run_ms(8000);
  double covered = 0.0;
  for (const auto& tx : txs) covered += protocols::honest_coverage(*w.ctx, tx);
  EXPECT_GT(covered / static_cast<double>(txs.size()), 0.97);
}

TEST(HermesBatch, CheaperPerTransactionThanUnbatched) {
  const std::size_t kTxs = 12;
  // Batched run.
  HermesProtocol batched(batch_config());
  World wb(40, batched, 31);
  wb.start();
  auto* sender = dynamic_cast<HermesNode*>(&wb.ctx->node(2));
  sender->submit_batch(make_batch(wb, 2, kTxs));
  wb.run_ms(8000);
  const auto batched_bytes = wb.ctx->network.total().bytes_sent;

  // Unbatched run: same txs one by one.
  HermesProtocol plain(batch_config());
  World wp(40, plain, 31);
  wp.start();
  for (std::size_t i = 0; i < kTxs; ++i) {
    protocols::inject_tx(*wp.ctx, 2);
    wp.run_ms(50);
  }
  wp.run_ms(8000);
  const auto plain_bytes = wp.ctx->network.total().bytes_sent;

  // Chunking spreads each overlay's share to ~1/data_chunks of the batch:
  // total payload bytes moved should shrink meaningfully.
  EXPECT_LT(batched_bytes, plain_bytes);
}

TEST(HermesBatch, ChunkWithBadCertificateIsFlaggedAndDropped) {
  HermesProtocol protocol(batch_config());
  World w(30, protocol);
  w.start();
  // Craft a forged chunk from node 7 to node 8.
  auto* attacker = dynamic_cast<HermesNode*>(&w.ctx->node(7));
  (void)attacker;
  auto body = std::make_shared<BatchChunkBody>();
  body->trs = TrsId{7, 1, crypto::sha256("forged batch")};
  body->certificate = to_bytes("not a signature");
  body->base_overlay = 0;
  body->data_shards = 2;
  body->total_shards = 3;
  body->shard_wire_bytes = 100;
  body->shard.index = 0;
  body->shard.bytes = to_bytes("junk");
  sim::Message msg;
  msg.src = 7;
  msg.dst = 8;
  msg.type = HermesNode::kMsgBatchChunk;
  msg.wire_bytes = 100;
  msg.body = body;
  auto* receiver = dynamic_cast<HermesNode*>(&w.ctx->node(8));
  receiver->on_message(msg);
  EXPECT_EQ(receiver->audit().count_of(ViolationKind::kBadCertificate), 1u);
  EXPECT_TRUE(receiver->audit().is_excluded(7));
  EXPECT_EQ(receiver->batches_decoded(), 0u);
}

TEST(HermesBatch, SequenceSharedWithSingleTxStream) {
  // A batch consumes one sequence number: a following single tx must use
  // the next one and still flow.
  HermesProtocol protocol(batch_config());
  World w(30, protocol);
  w.start();
  auto* sender = dynamic_cast<HermesNode*>(&w.ctx->node(5));
  sender->submit_batch(make_batch(w, 5, 4));
  w.run_ms(4000);
  const auto tx = w.send_from(5);
  w.run_ms(5000);
  EXPECT_DOUBLE_EQ(protocols::honest_coverage(*w.ctx, tx), 1.0);
}

}  // namespace
}  // namespace hermes::hermes_proto
