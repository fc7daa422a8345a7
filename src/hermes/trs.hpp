// Threshold Random Seed generation — Algorithm 4.
//
// A sender binds its i-th message to the committee before disseminating:
// it sends (origin, i, H(m)) to all 3f+1 committee members, who reliably
// broadcast the tuple among themselves (Bracha: Echo on receipt, Ready on
// 2f+1 Echoes or f+1 Readies, deliver on 2f+1 Readies), then return partial
// threshold signatures. Any 2f+1 partials combine into the unique signature
// phi(i, H(m)) whose hash is the dissemination seed. Sequence numbers are
// enforced by the committee: a request for sequence i is only processed
// once i-1 was, which is what blocks selective omission (Section VI-C).
//
// This header contains the protocol-agnostic pieces: the request message
// format, the per-tuple Bracha state machine, and the committee-side
// bookkeeping. hermes_node.cpp wires them to the simulated network.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "net/graph.hpp"
#include "support/bytes.hpp"

namespace hermes::hermes_proto {

// Identity of one TRS instance: who is sending their i-th message, and the
// hash of what they are sending.
struct TrsId {
  net::NodeId origin = 0;
  std::uint64_t seq = 0;
  crypto::Digest tx_hash{};

  // Canonical byte encoding — the exact message the committee signs.
  Bytes signed_message() const;
  // Map key (origin, seq, hash).
  std::string key() const;
  bool operator==(const TrsId& o) const {
    return origin == o.origin && seq == o.seq && tx_hash == o.tx_hash;
  }
};

// Bracha reliable-broadcast state for one TrsId at one committee member.
class BrachaState {
 public:
  explicit BrachaState(std::size_t f) : f_(f) {}

  // Each mutation returns true when the corresponding threshold was newly
  // crossed (so the caller knows to send its own Echo/Ready or deliver).
  bool on_request();                       // from the origin
  bool on_echo(net::NodeId member);        // returns: send Ready now
  bool on_ready(net::NodeId member);       // returns: send Ready now (f+1 rule)
  bool try_deliver();                      // returns: newly delivered (2f+1 readies)

  bool echoed() const { return echoed_; }
  bool readied() const { return readied_; }
  bool delivered() const { return delivered_; }
  std::size_t echo_count() const { return echoes_.size(); }

 private:
  std::size_t f_;
  bool echoed_ = false;
  bool readied_ = false;
  bool delivered_ = false;
  std::set<net::NodeId> echoes_;
  std::set<net::NodeId> readies_;
};

// Committee-member bookkeeping: per-origin sequence enforcement plus the
// Bracha instances.
class TrsCommitteeMember {
 public:
  TrsCommitteeMember(std::size_t f, std::size_t member_index)
      : f_(f), member_index_(member_index) {}

  std::size_t member_index() const { return member_index_; }

  // Sequence rule: requests must arrive in order per origin. Out-of-order
  // requests are parked and replayed when the gap closes; duplicates and
  // replays of already-delivered sequences are rejected.
  enum class SeqCheck { kInOrder, kDuplicate, kFuture };
  SeqCheck check_sequence(net::NodeId origin, std::uint64_t seq) const;
  void mark_delivered(net::NodeId origin, std::uint64_t seq);
  std::uint64_t next_expected(net::NodeId origin) const;

  BrachaState& state_for(const TrsId& id, std::size_t f);
  BrachaState* find_state(const TrsId& id);

 private:
  std::size_t f_;
  std::size_t member_index_;
  std::unordered_map<net::NodeId, std::uint64_t> next_seq_;
  std::unordered_map<std::string, BrachaState> instances_;
};

// Sender-side collection of partial signatures.
class TrsCollector {
 public:
  explicit TrsCollector(const crypto::ThresholdScheme& scheme)
      : scheme_(scheme) {}

  // Returns the combined signature once the threshold is reached (at most
  // once); nullopt before that or for invalid/duplicate partials.
  std::optional<Bytes> add_partial(const TrsId& id,
                                   const crypto::PartialSignature& partial);
  bool done(const TrsId& id) const;

 private:
  const crypto::ThresholdScheme& scheme_;
  std::unordered_map<std::string, std::vector<crypto::PartialSignature>>
      partials_;
  std::set<std::string> combined_;
};

// The verifiable overlay choice (Section VI-B): seed mod k. A receiver
// checks the combined signature and this index separately, recording a
// violation of its own kind for each (HermesNode::admissible).
std::size_t select_overlay(BytesView combined_signature, std::size_t k);

}  // namespace hermes::hermes_proto
