// Accountability tests: fault-density checking (Section III), signed
// violation reports with network-wide exclusion (Section VI-C), and the
// checks every data message passes first: its TRS binding, the
// certificate rule of the held record, and malformed wire values.
#include <gtest/gtest.h>

#include <algorithm>

#include "../protocols/harness.hpp"
#include "crypto/erasure.hpp"
#include "hermes/fault_density.hpp"
#include "hermes/hermes_node.hpp"

namespace hermes::hermes_proto {
namespace {

using protocols::Behavior;
using protocols::inject_tx;
using protocols::Transaction;
using protocols::testing::World;

// --- Fault density -----------------------------------------------------------

net::Graph star_graph(std::size_t leaves) {
  net::Graph g(leaves + 1);
  for (net::NodeId v = 1; v <= leaves; ++v) g.add_edge(0, v, 1.0);
  return g;
}

TEST(FaultDensity, HoldsWithNoFaults) {
  const net::Graph g = star_graph(5);
  const std::vector<bool> faulty(6, false);
  const auto report = check_fault_density(g, faulty, 2, 1);
  EXPECT_TRUE(report.holds);
  EXPECT_EQ(report.max_faulty_in_ball, 0u);
  EXPECT_TRUE(report.crowded_nodes.empty());
}

TEST(FaultDensity, DetectsCrowdedBall) {
  const net::Graph g = star_graph(5);
  std::vector<bool> faulty(6, false);
  faulty[1] = faulty[2] = true;  // two faulty leaves, f = 1 violated at hub
  const auto report = check_fault_density(g, faulty, 1, 1);
  EXPECT_FALSE(report.holds);
  EXPECT_EQ(report.max_faulty_in_ball, 2u);
  EXPECT_FALSE(report.crowded_nodes.empty());
}

TEST(FaultDensity, DetectsSurroundedNode) {
  // Leaf 1's only neighbor is the hub; a faulty hub surrounds every leaf.
  const net::Graph g = star_graph(3);
  std::vector<bool> faulty(4, false);
  faulty[0] = true;
  const auto report = check_fault_density(g, faulty, 1, 1);
  EXPECT_FALSE(report.holds);
  ASSERT_EQ(report.surrounded_nodes.size(), 3u);
}

TEST(FaultDensity, RadiusMatters) {
  // Line 0-1-2-3-4 with node 4 faulty: within 1 hop of node 2 there is no
  // fault; within 2 hops there is one.
  net::Graph g(5);
  for (net::NodeId v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1, 1.0);
  std::vector<bool> faulty(5, false);
  faulty[4] = true;
  const auto near = check_fault_density(g, faulty, 1, 1);
  EXPECT_EQ(near.max_faulty_in_ball, 1u);  // node 3 sees it
  EXPECT_TRUE(near.holds);
  const auto far = check_fault_density(g, faulty, 4, 0);
  EXPECT_FALSE(far.holds);
}

// --- Violation reports -------------------------------------------------------

HermesConfig report_config() {
  HermesConfig config;
  config.f = 1;
  config.k = 4;
  config.builder.annealing.initial_temperature = 5.0;
  config.builder.annealing.min_temperature = 1.0;
  config.builder.annealing.cooling_rate = 0.8;
  config.builder.annealing.moves_per_temperature = 4;
  return config;
}

// A report by `reporter` accusing `offender` of a bad certificate on tx 7
// at t = 1 ms, signed with the reporter's derived key.
std::shared_ptr<ViolationReportBody> signed_report(const HermesShared& shared,
                                                   net::NodeId reporter,
                                                   net::NodeId offender) {
  auto body = std::make_shared<ViolationReportBody>();
  body->violation = Violation{1.0, ViolationKind::kBadCertificate, offender, 7};
  body->reporter = reporter;
  const crypto::SimSigner signer =
      crypto::SimSigner::derive(shared.report_master_key, reporter);
  // Recreate the exact signed material.
  Bytes material = to_bytes("hermes.report.v1");
  material.push_back(static_cast<std::uint8_t>(ViolationKind::kBadCertificate));
  put_u32_be(material, offender);
  put_u64_be(material, 7);
  put_u32_be(material, reporter);
  put_u64_be(material, 1000);
  body->signature = signer.sign(material);
  return body;
}

TEST(ViolationReports, BlastingAttackerIsExcludedNetworkWide) {
  HermesConfig config = report_config();
  config.adversary_blind_blast = true;  // the naive attacker variant
  HermesProtocol protocol(config);
  World w(40, protocol);
  w.ctx->assign_behaviors(0.2, Behavior::kFrontRunner);
  w.ctx->attack_enabled = true;
  w.start();
  const net::NodeId sender = w.ctx->random_honest(w.ctx->rng);
  const auto victim = inject_tx(*w.ctx, sender);
  w.run_ms(10000);
  ASSERT_EQ(w.ctx->adversarial_of.count(victim.id), 1u);
  const net::NodeId attacker = w.ctx->adversarial_of[victim.id].sender;
  // The attacker's certificate-less blast hit several honest nodes; their
  // signed reports spread, so many nodes (not only direct receivers)
  // excluded the attacker.
  std::size_t excluding = 0;
  for (net::NodeId v = 0; v < 40; ++v) {
    if (!w.ctx->is_honest(v)) continue;
    if (static_cast<const HermesNode&>(w.ctx->node(v)).excluded(attacker)) {
      ++excluding;
    }
  }
  EXPECT_GT(excluding, 5u);
}

TEST(ViolationReports, ForgedReportIsIgnored) {
  HermesProtocol protocol(report_config());
  World w(20, protocol);
  w.start();
  auto* receiver = dynamic_cast<HermesNode*>(&w.ctx->node(3));
  auto body = std::make_shared<ViolationReportBody>();
  body->violation = Violation{1.0, ViolationKind::kBadCertificate, 9, 77};
  body->reporter = 5;
  body->signature = to_bytes("forged");
  sim::Message msg;
  msg.src = 5;
  msg.dst = 3;
  msg.type = HermesNode::kMsgViolationReport;
  msg.wire_bytes = 80;
  msg.body = body;
  receiver->on_message(msg);
  EXPECT_FALSE(receiver->excluded(9));
}

TEST(ViolationReports, SingleAccuserIsNotEnough) {
  // f = 1: one accusation must not exclude (a single faulty node could
  // frame anyone); f+1 = 2 distinct accusers are needed.
  HermesProtocol protocol(report_config());
  World w(20, protocol);
  w.start();
  const auto make_report = [&protocol](net::NodeId reporter,
                                       net::NodeId offender) {
    return signed_report(*protocol.shared(), reporter, offender);
  };
  auto* receiver = dynamic_cast<HermesNode*>(&w.ctx->node(3));
  sim::Message msg;
  msg.dst = 3;
  msg.type = HermesNode::kMsgViolationReport;
  msg.wire_bytes = 80;
  msg.src = 5;
  msg.body = make_report(5, 9);
  receiver->on_message(msg);
  EXPECT_FALSE(receiver->excluded(9));
  // A duplicate from the same accuser still does not count twice.
  msg.body = make_report(5, 9);
  receiver->on_message(msg);
  EXPECT_FALSE(receiver->excluded(9));
  // A second distinct accuser tips it.
  msg.src = 6;
  msg.body = make_report(6, 9);
  receiver->on_message(msg);
  EXPECT_TRUE(receiver->excluded(9));
}

TEST(ViolationReports, OutOfRangeIdsAreIgnored) {
  // A validly signed report can still name a node id past the network, as
  // offender or as reporter. It is evidence about no node: it must neither
  // exclude anyone nor reach the self-healing repairs, whose trees are
  // indexed by node id.
  for (const bool healing : {false, true}) {
    SCOPED_TRACE(healing ? "healing on" : "healing off");
    HermesConfig config = report_config();
    config.enable_self_healing = healing;
    HermesProtocol protocol(config);
    World w(20, protocol);
    w.start();
    auto* receiver = dynamic_cast<HermesNode*>(&w.ctx->node(3));
    constexpr net::NodeId kGhost = 100000;
    sim::Message msg;
    msg.dst = 3;
    msg.type = HermesNode::kMsgViolationReport;
    msg.wire_bytes = 80;
    for (const net::NodeId reporter : {5u, 6u}) {
      msg.src = reporter;
      msg.body = signed_report(*protocol.shared(), reporter, kGhost);
      receiver->on_message(msg);
    }
    EXPECT_FALSE(receiver->excluded(kGhost));
    EXPECT_TRUE(receiver->removed_nodes().empty());
    // Two nonexistent reporters do not make f+1 accusers of a real node.
    for (const net::NodeId reporter : {kGhost, kGhost + 1}) {
      msg.src = 5;
      msg.body = signed_report(*protocol.shared(), reporter, 9);
      receiver->on_message(msg);
    }
    EXPECT_FALSE(receiver->excluded(9));
  }
}

// --- TRS binding (Section VI-B) ----------------------------------------------

// The certificate the committee would issue for `trs`: 2f+1 partials
// combined under the world's threshold scheme.
Bytes certify(const HermesShared& shared, const TrsId& trs) {
  const Bytes message = trs.signed_message();
  std::vector<crypto::PartialSignature> partials;
  for (std::size_t i = 1; i <= shared.config.trs_threshold(); ++i) {
    partials.push_back(shared.scheme->partial_sign(i, message));
  }
  return shared.scheme->combine(message, partials).value();
}

Transaction tx_of(net::NodeId sender, std::uint64_t seq) {
  Transaction tx;
  tx.sender = sender;
  tx.sender_seq = seq;
  tx.id = Transaction::make_id(sender, seq);
  return tx;
}

sim::Message message(net::NodeId src, net::NodeId dst, std::uint32_t type,
                     std::shared_ptr<const sim::MessageBody> body) {
  sim::Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.type = type;
  msg.wire_bytes = 400;
  msg.body = std::move(body);
  return msg;
}

TEST(TrsBinding, RelayCannotRideAVictimsCertificate) {
  HermesProtocol protocol(report_config());
  World w(40, protocol);
  w.start();
  const HermesShared& shared = *protocol.shared();
  const Transaction victim = tx_of(7, 1);
  const TrsId trs{victim.sender, victim.sender_seq, victim.hash()};
  const Bytes certificate = certify(shared, trs);
  const std::uint32_t overlay_index = static_cast<std::uint32_t>(
      select_overlay(certificate, shared.config.k));
  const overlay::Overlay& ov = shared.overlays[overlay_index];
  // A relay on the victim's overlay puts its own transaction into the body
  // it forwards, keeping the victim's TRS, certificate, overlay and epoch.
  net::NodeId relay = 0;
  while (relay == victim.sender || ov.successors(relay).empty()) ++relay;
  const net::NodeId receiver_id = ov.successors(relay).front();
  const auto body = [&](const Transaction& tx) {
    auto d = std::make_shared<DataBody>();
    d->tx = tx;
    d->trs = trs;
    d->certificate = certificate;
    d->overlay_index = overlay_index;
    d->epoch = shared.epoch;
    return d;
  };
  const Transaction swapped = tx_of(relay, 1);
  auto& receiver = dynamic_cast<HermesNode&>(w.ctx->node(receiver_id));
  receiver.on_message(message(relay, receiver_id, HermesNode::kMsgData,
                              body(swapped)));
  EXPECT_FALSE(receiver.pool().seen(swapped.id));
  ASSERT_EQ(receiver.audit().count_of(ViolationKind::kBadCertificate), 1u);
  EXPECT_EQ(receiver.audit().violations().back().offender, relay);

  // The fallback lane checks the same binding, from any holder.
  auto& puller = dynamic_cast<HermesNode&>(w.ctx->node(victim.sender + 1));
  puller.on_message(message(relay, puller.id(), HermesNode::kMsgFallback,
                            body(swapped)));
  EXPECT_FALSE(puller.pool().seen(swapped.id));
  EXPECT_EQ(puller.audit().count_of(ViolationKind::kBadCertificate), 1u);

  // The body the certificate covers still goes through, from another
  // predecessor (the relay is now excluded here).
  EXPECT_TRUE(receiver.excluded(relay));
  const auto& preds = ov.predecessors(receiver_id);
  const net::NodeId honest =
      preds.front() != relay ? preds.front() : preds.back();
  ASSERT_NE(honest, relay);
  receiver.on_message(message(honest, receiver_id, HermesNode::kMsgData,
                              body(victim)));
  EXPECT_TRUE(receiver.pool().seen(victim.id));
  EXPECT_EQ(receiver.audit().violations().size(), 1u);
}

// The shards an origin would send for `txs` under `trs`.
std::vector<std::shared_ptr<const BatchChunkBody>> shards_of(
    const HermesShared& shared, const std::vector<Transaction>& txs,
    const TrsId& trs, const Bytes& certificate) {
  const std::size_t data = HermesNode::kBatchDataChunks;
  const crypto::ErasureCode code(data, shared.config.f);
  std::vector<std::shared_ptr<const BatchChunkBody>> out;
  for (crypto::Shard& shard : code.encode(mempool::serialize_batch(txs))) {
    auto chunk = std::make_shared<BatchChunkBody>();
    chunk->trs = trs;
    chunk->certificate = certificate;
    chunk->base_overlay = static_cast<std::uint32_t>(
        select_overlay(certificate, shared.config.k));
    chunk->data_shards = static_cast<std::uint32_t>(data);
    chunk->total_shards = static_cast<std::uint32_t>(code.total_shards());
    chunk->shard_wire_bytes = 200;
    chunk->epoch = shared.epoch;
    chunk->shard = std::move(shard);
    out.push_back(std::move(chunk));
  }
  return out;
}

// Hands every shard to `receiver` from a legitimate sender on the shard's
// overlay: a predecessor, or any node where the receiver is an entry.
void hand_over(const HermesShared& shared, HermesNode& receiver,
               const std::vector<std::shared_ptr<const BatchChunkBody>>& set) {
  for (const auto& chunk : set) {
    const overlay::Overlay& ov =
        shared.overlays[(chunk->base_overlay + chunk->shard.index) %
                        shared.config.k];
    const net::NodeId src = ov.is_entry(receiver.id())
                                ? (receiver.id() + 1) % ov.node_count()
                                : ov.predecessors(receiver.id()).front();
    receiver.on_message(
        message(src, receiver.id(), HermesNode::kMsgBatchChunk, chunk));
  }
}

TEST(TrsBinding, ForgedShardSetDeliversNoMember) {
  HermesProtocol protocol(report_config());
  World w(40, protocol);
  w.start();
  const HermesShared& shared = *protocol.shared();
  std::vector<Transaction> victim;
  std::vector<Transaction> forged;
  for (std::uint64_t seq = 0x800001; seq <= 0x800004; ++seq) {
    victim.push_back(tx_of(7, seq));
    forged.push_back(tx_of(29, seq));
  }
  const TrsId trs{7, 1, mempool::batch_hash(victim)};
  const Bytes certificate = certify(shared, trs);
  auto& receiver = dynamic_cast<HermesNode&>(w.ctx->node(11));

  // A full shard set of another batch under the victim's certificate.
  hand_over(shared, receiver, shards_of(shared, forged, trs, certificate));
  for (const Transaction& tx : forged) {
    EXPECT_FALSE(receiver.pool().seen(tx.id)) << tx.id;
  }
  EXPECT_EQ(receiver.batches_decoded(), 0u);

  // The certified batch still decodes from the shards that follow.
  hand_over(shared, receiver, shards_of(shared, victim, trs, certificate));
  for (const Transaction& tx : victim) {
    EXPECT_TRUE(receiver.pool().seen(tx.id)) << tx.id;
  }
  EXPECT_EQ(receiver.batches_decoded(), 1u);
}

// --- One record per held transaction -----------------------------------------

// A copy of `body` (a DataBody or BatchChunkBody) carrying `certificate`:
// a separate allocation, so only its content can match what the receiver
// holds.
template <typename Body>
std::shared_ptr<Body> copy_with(const Body& body, const Bytes& certificate) {
  auto copy = std::make_shared<Body>(body);
  copy->certificate = certificate;
  return copy;
}

Bytes flipped(Bytes certificate) {
  certificate.front() ^= 0x01;
  return certificate;
}

// The first node other than `skip` with at least two predecessors on each
// overlay in `overlays`.
net::NodeId with_two_predecessors(const HermesShared& shared,
                                  const std::vector<std::size_t>& overlays,
                                  net::NodeId skip) {
  for (net::NodeId v = 0; v < shared.overlays.front().node_count(); ++v) {
    if (v == skip) continue;
    const bool fits = std::all_of(
        overlays.begin(), overlays.end(), [&](std::size_t idx) {
          return shared.overlays[idx].predecessors(v).size() >= 2;
        });
    if (fits) return v;
  }
  ADD_FAILURE() << "no node with two predecessors";
  return 0;
}

// A node that holds a transaction's body skips the certificate check only
// for copies with the held TRS and certificate: the exemption keys on the
// record's content, not on the transaction id.
TEST(HeldRecord, OnlyACopyOfTheHeldBodySkipsVerification) {
  HermesProtocol protocol(report_config());
  World w(40, protocol);
  w.start();
  const HermesShared& shared = *protocol.shared();
  const Transaction tx = tx_of(7, 1);
  const TrsId trs{tx.sender, tx.sender_seq, tx.hash()};
  const Bytes certificate = certify(shared, trs);
  DataBody held;
  held.tx = tx;
  held.trs = trs;
  held.certificate = certificate;
  held.overlay_index = static_cast<std::uint32_t>(
      select_overlay(certificate, shared.config.k));
  held.epoch = shared.epoch;
  const net::NodeId receiver_id =
      with_two_predecessors(shared, {held.overlay_index}, tx.sender);
  const auto& preds = shared.overlays[held.overlay_index].predecessors(
      receiver_id);
  auto& receiver = dynamic_cast<HermesNode&>(w.ctx->node(receiver_id));
  const auto send = [&](net::NodeId src, std::uint32_t type,
                        const Bytes& cert) {
    receiver.on_message(
        message(src, receiver_id, type, copy_with(held, cert)));
  };
  // Senders of the forged copies, apart from the predecessors: a violation
  // excludes its sender here. The certificate is checked before the
  // sender's place on the tree, so any sender earns kBadCertificate.
  std::vector<net::NodeId> outsiders;
  for (net::NodeId v = 0; outsiders.size() < 2; ++v) {
    if (v != receiver_id && v != tx.sender &&
        std::find(preds.begin(), preds.end(), v) == preds.end()) {
      outsiders.push_back(v);
    }
  }

  send(preds[0], HermesNode::kMsgData, certificate);
  ASSERT_TRUE(receiver.pool().seen(tx.id));
  // An equal copy from the other predecessor passes.
  send(preds[1], HermesNode::kMsgData, certificate);
  EXPECT_TRUE(receiver.audit().violations().empty());
  // Same transaction and TRS, a certificate that does not verify: checked
  // and logged, on the tree and on the fallback lane alike.
  send(outsiders[0], HermesNode::kMsgData, flipped(certificate));
  send(outsiders[1], HermesNode::kMsgFallback, flipped(certificate));
  ASSERT_EQ(receiver.audit().count_of(ViolationKind::kBadCertificate), 2u);
  EXPECT_EQ(receiver.audit().violations()[0].offender, outsiders[0]);
  EXPECT_EQ(receiver.audit().violations()[1].offender, outsiders[1]);
  // An equal pulled copy passes too.
  send(preds[1], HermesNode::kMsgFallback, certificate);
  EXPECT_EQ(receiver.audit().violations().size(), 2u);
}

// The same rule for batch shards: after the batch's first admitted shard,
// shards carrying its certificate pass unchecked and any other certificate
// is verified. A shard that fails the check leaves no record behind.
TEST(HeldRecord, OnlyShardsUnderTheAdmittedCertificateSkipVerification) {
  HermesProtocol protocol(report_config());
  World w(40, protocol);
  w.start();
  const HermesShared& shared = *protocol.shared();
  std::vector<Transaction> batch;
  for (std::uint64_t seq = 0x800001; seq <= 0x800004; ++seq) {
    batch.push_back(tx_of(7, seq));
  }
  const TrsId trs{7, 1, mempool::batch_hash(batch)};
  const Bytes certificate = certify(shared, trs);
  const auto shards = shards_of(shared, batch, trs, certificate);
  ASSERT_GE(shards.size(), 3u);
  const auto overlay_of = [&](const BatchChunkBody& chunk) {
    return (chunk.base_overlay + chunk.shard.index) % shared.config.k;
  };
  const net::NodeId receiver_id = with_two_predecessors(
      shared, {overlay_of(*shards[0]), overlay_of(*shards[1]),
               overlay_of(*shards[2])},
      trs.origin);
  auto& receiver = dynamic_cast<HermesNode&>(w.ctx->node(receiver_id));
  const auto pred = [&](const BatchChunkBody& chunk, std::size_t which) {
    return shared.overlays[overlay_of(chunk)].predecessors(receiver_id)[which];
  };
  const auto send = [&](net::NodeId src, const BatchChunkBody& chunk,
                        const Bytes& cert) {
    receiver.on_message(message(src, receiver_id, HermesNode::kMsgBatchChunk,
                                copy_with(chunk, cert)));
  };
  // Senders of the forged shards, apart from the receiver's predecessors
  // on every overlay: a violation excludes its sender here.
  std::vector<net::NodeId> outsiders;
  for (net::NodeId v = 0; outsiders.size() < 3; ++v) {
    bool on_tree = v == receiver_id || v == trs.origin;
    for (const overlay::Overlay& ov : shared.overlays) {
      on_tree = on_tree || ov.has_link(v, receiver_id);
    }
    if (!on_tree) outsiders.push_back(v);
  }

  // Before any shard is admitted, forged shards are each verified: the
  // first one left no record that could exempt the second.
  send(outsiders[0], *shards[0], flipped(certificate));
  send(outsiders[1], *shards[1], flipped(certificate));
  EXPECT_EQ(receiver.audit().count_of(ViolationKind::kBadCertificate), 2u);
  // The first admitted shard fixes the batch's certificate.
  send(pred(*shards[0], 0), *shards[0], certificate);
  EXPECT_EQ(receiver.audit().violations().size(), 2u);
  // Another certificate for the same batch is still verified.
  send(outsiders[2], *shards[1], flipped(certificate));
  ASSERT_EQ(receiver.audit().count_of(ViolationKind::kBadCertificate), 3u);
  EXPECT_EQ(receiver.audit().violations().back().offender, outsiders[2]);
  // Equal certificates pass, from either predecessor, and decode the batch.
  send(pred(*shards[0], 1), *shards[0], certificate);
  send(pred(*shards[1], 1), *shards[1], certificate);
  send(pred(*shards[2], 0), *shards[2], certificate);
  EXPECT_EQ(receiver.audit().violations().size(), 3u);
  EXPECT_EQ(receiver.batches_decoded(), 1u);
  for (const Transaction& tx : batch) {
    EXPECT_TRUE(receiver.pool().seen(tx.id)) << tx.id;
  }
}

// --- Malformed input ---------------------------------------------------------

// Shard counts come off the wire: a shard under a genuine certificate may
// still claim more shards than the erasure code takes, or an index past
// its own count. Both are rejected as malformed instead of reaching the
// code.
TEST(MalformedInput, ShardCountsTheCodeCannotTakeAreRejected) {
  HermesProtocol protocol(report_config());
  World w(40, protocol);
  w.start();
  const HermesShared& shared = *protocol.shared();
  std::vector<Transaction> batch{tx_of(7, 0x800001)};
  const TrsId trs{7, 1, mempool::batch_hash(batch)};
  const Bytes certificate = certify(shared, trs);
  auto chunk = std::make_shared<BatchChunkBody>(
      *shards_of(shared, batch, trs, certificate).front());
  // The receiver is an entry point of the shard's overlay, so any sender
  // is a legitimate predecessor there.
  const overlay::Overlay& ov =
      shared.overlays[chunk->base_overlay % shared.config.k];
  const net::NodeId receiver_id = ov.entry_points().front() != trs.origin
                                      ? ov.entry_points().front()
                                      : ov.entry_points().back();
  auto& receiver = dynamic_cast<HermesNode&>(w.ctx->node(receiver_id));
  const net::NodeId first = receiver_id == 20 ? 21 : 20;
  const net::NodeId second = receiver_id == 22 ? 23 : 22;

  // One data shard among 300: enough to try decoding at once.
  chunk->data_shards = 1;
  chunk->total_shards = crypto::ErasureCode::kMaxShards + 45;
  receiver.on_message(
      message(first, receiver_id, HermesNode::kMsgBatchChunk, chunk));
  EXPECT_EQ(receiver.audit().count_of(ViolationKind::kWrongOverlay), 1u);

  auto beyond = std::make_shared<BatchChunkBody>(*chunk);
  beyond->total_shards = 4;
  beyond->shard.index = 4;
  receiver.on_message(
      message(second, receiver_id, HermesNode::kMsgBatchChunk, beyond));
  EXPECT_EQ(receiver.audit().count_of(ViolationKind::kWrongOverlay), 2u);
  EXPECT_EQ(receiver.batches_decoded(), 0u);
  EXPECT_FALSE(receiver.pool().seen(batch.front().id));
}

// A relay hop comes off the wire too: a routed body whose next hop is the
// relay itself, or no node at all, is dropped rather than sent.
TEST(MalformedInput, RelayDropsAHopToItselfOrToNoNode) {
  HermesProtocol protocol(report_config());
  World w(40, protocol);
  w.start();
  const HermesShared& shared = *protocol.shared();
  const Transaction tx = tx_of(7, 1);
  const net::NodeId relay_id = 12;
  auto& relay = dynamic_cast<HermesNode&>(w.ctx->node(relay_id));
  const auto routed = [&](net::NodeId next) {
    auto d = std::make_shared<DataBody>();
    d->tx = tx;
    d->trs = TrsId{tx.sender, tx.sender_seq, tx.hash()};
    d->epoch = shared.epoch;
    d->route = {next, 30};
    return d;
  };
  const std::uint64_t sent_before =
      w.ctx->network.counters(relay_id).messages_sent;
  const net::NodeId nodes = static_cast<net::NodeId>(w.ctx->node_count());
  for (const net::NodeId next : {relay_id, nodes, nodes + 5}) {
    relay.on_message(message(tx.sender, relay_id, HermesNode::kMsgData,
                             routed(next)));
  }
  EXPECT_EQ(w.ctx->network.counters(relay_id).messages_sent, sent_before);
  EXPECT_TRUE(relay.audit().violations().empty());
  // A well-formed hop is still relayed.
  relay.on_message(
      message(tx.sender, relay_id, HermesNode::kMsgData, routed(13)));
  EXPECT_EQ(w.ctx->network.counters(relay_id).messages_sent, sent_before + 1);
}

}  // namespace
}  // namespace hermes::hermes_proto
