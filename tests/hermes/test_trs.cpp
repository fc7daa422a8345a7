#include "hermes/trs.hpp"

#include <gtest/gtest.h>

#include "crypto/sim_signer.hpp"

namespace hermes::hermes_proto {
namespace {

TrsId make_id(net::NodeId origin = 3, std::uint64_t seq = 1) {
  TrsId id;
  id.origin = origin;
  id.seq = seq;
  id.tx_hash = crypto::sha256("tx-" + std::to_string(origin) + "-" +
                              std::to_string(seq));
  return id;
}

TEST(TrsId, SignedMessageBindsAllFields) {
  const TrsId a = make_id(1, 1);
  const TrsId b = make_id(1, 2);
  const TrsId c = make_id(2, 1);
  EXPECT_NE(a.signed_message(), b.signed_message());
  EXPECT_NE(a.signed_message(), c.signed_message());
  EXPECT_EQ(a.signed_message(), make_id(1, 1).signed_message());
  EXPECT_NE(a.key(), b.key());
}

TEST(Bracha, EchoThresholdTriggersReady) {
  BrachaState state(1);  // f=1: 2f+1 = 3 echoes
  EXPECT_FALSE(state.on_echo(1));
  EXPECT_FALSE(state.on_echo(2));
  EXPECT_TRUE(state.on_echo(3));
  EXPECT_TRUE(state.readied());
  // Further echoes do not re-trigger.
  EXPECT_FALSE(state.on_echo(4));
}

TEST(Bracha, DuplicateEchoesNotDoubleCounted) {
  BrachaState state(1);
  EXPECT_FALSE(state.on_echo(1));
  EXPECT_FALSE(state.on_echo(1));
  EXPECT_FALSE(state.on_echo(1));
  EXPECT_EQ(state.echo_count(), 1u);
  EXPECT_FALSE(state.readied());
}

TEST(Bracha, ReadyAmplification) {
  BrachaState state(1);  // f+1 = 2 readies trigger own ready
  EXPECT_FALSE(state.on_ready(1));
  EXPECT_TRUE(state.on_ready(2));
  EXPECT_TRUE(state.readied());
}

TEST(Bracha, DeliveryAtTwoFPlusOneReadies) {
  BrachaState state(1);
  state.on_ready(1);
  state.on_ready(2);
  EXPECT_FALSE(state.try_deliver());
  state.on_ready(3);
  EXPECT_TRUE(state.try_deliver());
  EXPECT_TRUE(state.delivered());
  EXPECT_FALSE(state.try_deliver());  // only once
}

TEST(Bracha, RequestEchoesOnce) {
  BrachaState state(2);
  EXPECT_TRUE(state.on_request());
  EXPECT_FALSE(state.on_request());
}

TEST(CommitteeMember, SequenceEnforcement) {
  TrsCommitteeMember member(1, 1);
  EXPECT_EQ(member.next_expected(9), 1u);
  EXPECT_EQ(member.check_sequence(9, 1), TrsCommitteeMember::SeqCheck::kInOrder);
  EXPECT_EQ(member.check_sequence(9, 2), TrsCommitteeMember::SeqCheck::kFuture);
  member.mark_delivered(9, 1);
  EXPECT_EQ(member.next_expected(9), 2u);
  EXPECT_EQ(member.check_sequence(9, 1),
            TrsCommitteeMember::SeqCheck::kDuplicate);
  EXPECT_EQ(member.check_sequence(9, 2), TrsCommitteeMember::SeqCheck::kInOrder);
}

TEST(CommitteeMember, OutOfOrderDeliveryDoesNotAdvance) {
  TrsCommitteeMember member(1, 1);
  member.mark_delivered(9, 3);  // skipped: must not advance
  EXPECT_EQ(member.next_expected(9), 1u);
}

TEST(CommitteeMember, PerOriginIsolation) {
  TrsCommitteeMember member(1, 1);
  member.mark_delivered(1, 1);
  EXPECT_EQ(member.next_expected(1), 2u);
  EXPECT_EQ(member.next_expected(2), 1u);
}

TEST(Collector, CombinesAtThreshold) {
  const crypto::SimThresholdScheme scheme(to_bytes("grp"), 4, 3);
  TrsCollector collector(scheme);
  const TrsId id = make_id();
  const Bytes msg = id.signed_message();
  EXPECT_FALSE(collector.add_partial(id, scheme.partial_sign(1, msg)));
  EXPECT_FALSE(collector.add_partial(id, scheme.partial_sign(2, msg)));
  const auto combined = collector.add_partial(id, scheme.partial_sign(3, msg));
  ASSERT_TRUE(combined.has_value());
  EXPECT_TRUE(scheme.verify_combined(msg, *combined));
  EXPECT_TRUE(collector.done(id));
  // Late partials are ignored after combination.
  EXPECT_FALSE(collector.add_partial(id, scheme.partial_sign(4, msg)));
}

TEST(Collector, RejectsInvalidAndDuplicatePartials) {
  const crypto::SimThresholdScheme scheme(to_bytes("grp"), 4, 3);
  TrsCollector collector(scheme);
  const TrsId id = make_id();
  const Bytes msg = id.signed_message();
  auto p1 = scheme.partial_sign(1, msg);
  EXPECT_FALSE(collector.add_partial(id, p1));
  EXPECT_FALSE(collector.add_partial(id, p1));  // duplicate index
  auto forged = scheme.partial_sign(2, msg);
  forged.bytes[0] ^= 1;
  EXPECT_FALSE(collector.add_partial(id, forged));
  EXPECT_FALSE(collector.add_partial(id, scheme.partial_sign(2, msg)));
  // Still needs a third distinct valid partial.
  EXPECT_TRUE(collector.add_partial(id, scheme.partial_sign(4, msg)).has_value());
}

TEST(OverlaySelection, DeterministicAndVerifiable) {
  const crypto::SimThresholdScheme scheme(to_bytes("grp"), 4, 3);
  const TrsId id = make_id();
  const Bytes msg = id.signed_message();
  std::vector<crypto::PartialSignature> partials;
  for (std::size_t i = 1; i <= 3; ++i) partials.push_back(scheme.partial_sign(i, msg));
  const auto sig = scheme.combine(msg, partials);
  ASSERT_TRUE(sig.has_value());
  const std::size_t k = 10;
  const std::size_t choice = select_overlay(*sig, k);
  EXPECT_LT(choice, k);
  // A receiver checks the certificate and then the claimed index against
  // the seed (HermesNode::admissible).
  EXPECT_TRUE(scheme.verify_combined(msg, *sig));
  EXPECT_EQ(select_overlay(*sig, k), choice);
  EXPECT_NE(select_overlay(*sig, k), (choice + 1) % k);
}

TEST(OverlaySelection, RejectsForgedSignature) {
  const crypto::SimThresholdScheme scheme(to_bytes("grp"), 4, 3);
  const TrsId id = make_id();
  Bytes forged(32, 0xab);
  // The forged seed picks some overlay, but the certificate fails first.
  EXPECT_LT(select_overlay(forged, 10), 10u);
  EXPECT_FALSE(scheme.verify_combined(id.signed_message(), forged));
}

TEST(OverlaySelection, SpreadsAcrossOverlays) {
  const crypto::SimThresholdScheme scheme(to_bytes("grp"), 4, 3);
  constexpr std::size_t k = 10;
  std::array<int, k> buckets{};
  for (std::uint64_t seq = 1; seq <= 500; ++seq) {
    const TrsId id = make_id(7, seq);
    const Bytes msg = id.signed_message();
    std::vector<crypto::PartialSignature> partials;
    for (std::size_t i = 1; i <= 3; ++i) {
      partials.push_back(scheme.partial_sign(i, msg));
    }
    const auto sig = scheme.combine(msg, partials);
    ASSERT_TRUE(sig.has_value());
    buckets[select_overlay(*sig, k)] += 1;
  }
  for (int count : buckets) {
    EXPECT_GT(count, 20);  // roughly uniform over 500 draws
    EXPECT_LT(count, 100);
  }
}

}  // namespace
}  // namespace hermes::hermes_proto
