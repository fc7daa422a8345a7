// The HERMES protocol node (Sections IV and VI), tying together:
//   - TRS generation with the 3f+1 committee (Algorithm 4),
//   - randomized, verifiable overlay selection (seed mod k),
//   - injection at the f+1 entry points via vertex-disjoint physical paths,
//   - accountable dissemination along the selected robust-tree overlay
//     (certificate check, predecessor-legitimacy check, sequence
//     continuity, violation logging and exclusion),
//   - the delayed gossip fallback of Section VII-A.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "crypto/erasure.hpp"
#include "crypto/sim_signer.hpp"
#include "hermes/audit.hpp"
#include "hermes/config.hpp"
#include "hermes/epoch_pipeline.hpp"
#include "hermes/health.hpp"
#include "hermes/trs.hpp"
#include "overlay/encoding.hpp"
#include "protocols/base.hpp"
#include "support/stats.hpp"

namespace hermes::hermes_proto {

using protocols::ExperimentContext;
using protocols::Protocol;
using protocols::ProtocolNode;
using protocols::Transaction;

// Message bodies -------------------------------------------------------------

struct TrsRequestBody final : sim::Body<TrsRequestBody> {
  TrsId trs;
};
struct TrsVoteBody final : sim::Body<TrsVoteBody> {  // Echo and Ready
  TrsId trs;
};
struct TrsPartialBody final : sim::Body<TrsPartialBody> {
  TrsId trs;
  crypto::PartialSignature partial;
};
// The certified tuple (tx, TRS, certificate) of one transaction. The
// origin builds one immutable body; every node forwards the body it
// received and keeps it in its pool entry, which reads the transaction
// there, to answer fallback pulls (tag kMsgFallback), so one allocation
// serves the whole network.
struct DataBody final : sim::Body<DataBody> {
  Transaction tx;
  TrsId trs;
  Bytes certificate;
  std::uint32_t overlay_index = 0;
  // Overlay generation this message was routed with (Section VII view
  // changes); receivers validate against the matching generation and drop
  // anything older than the previous one as stale.
  std::uint64_t epoch = 0;
  // Remaining relay hops toward an entry point; empty once it arrives.
  std::vector<net::NodeId> route;
};
// Gossip fallback is offer/pull: after delay T a holder offers the tx id
// to random neighbors; only nodes with a hole pull the payload. This keeps
// the fallback's steady-state cost near zero (Figure 3b). Offers travel as
// digests: every T/4 a node sends each sampled neighbor one shared body
// listing all ids whose offer round is due. Wire size 8 + 8 per id.
struct FallbackOfferBody final : sim::Body<FallbackOfferBody> {
  std::vector<std::uint64_t> tx_ids;
};
// The offered ids the receiver has not seen (gap pulls list one id); the
// holder answers each with its stored DataBody. Wire size 8 + 8 per id.
struct FallbackRequestBody final : sim::Body<FallbackRequestBody> {
  std::vector<std::uint64_t> tx_ids;
};
// Signed violation report gossiped for global accountability
// (Section VI-C).
struct ViolationReportBody final : sim::Body<ViolationReportBody> {
  Violation violation;
  net::NodeId reporter = 0;
  Bytes signature;
};
// Aggregated delivery acknowledgment flowing back up the overlay
// (Section IV step 3, optional).
struct AckUpBody final : sim::Body<AckUpBody> {
  std::uint64_t tx_id = 0;
  std::uint32_t overlay_index = 0;
  std::uint32_t count = 0;  // deliveries in the reporting subtree
};
// Signed departure notice (self-healing): `reporter` observed sustained
// silence from predecessor `suspect` while sibling predecessors kept
// feeding it. f+1 distinct reporters mark the suspect departed everywhere
// (f+1 cannot all be faulty), and every honest node then repairs its
// overlays locally. Deliberately separate from ViolationReportBody:
// silence is churn evidence, not an accusation of protocol violation, so
// it never feeds the audit/exclusion machinery.
// Reports are generation-scoped: the signed material binds the epoch the
// silence was observed in, receivers drop other-epoch reports, and the
// acceptance dedup resets only on epoch install. Each node therefore
// accepts (and re-gossips) each (suspect, reporter) material at most once
// per generation — churn evidence can never chain-react with the join
// admission machinery, whose witness materials are epoch-bound the same
// way.
struct DepartureReportBody final : sim::Body<DepartureReportBody> {
  net::NodeId suspect = 0;
  net::NodeId reporter = 0;
  std::uint64_t epoch = 0;
  Bytes signature;
};
// Committee-internal view-change vote (self-healing): a member whose
// degradation score crossed the threshold asks for an epoch rebuild; f+1
// distinct votes for the same epoch trigger advance_epoch.
struct ViewChangeVoteBody final : sim::Body<ViewChangeVoteBody> {
  std::uint64_t from_epoch = 0;
  net::NodeId voter = 0;
  Bytes signature;
};
// Per-origin sequence digest (self-healing anti-entropy): each health tick
// a node tells one random neighbor the highest sequence it has seen per
// origin. A receiver that learns of sequences beyond its own horizon opens
// a gap and pulls the payload through the fallback path — this is what
// lets a node that missed *every* copy of a transaction still discover
// that it exists.
struct SeqDigestBody final : sim::Body<SeqDigestBody> {
  std::vector<std::pair<net::NodeId, std::uint64_t>> max_seen;
};
// Signed join request (churn layer): a node that wants (back) into the
// dissemination fabric announces itself to its physical neighbors. Peers
// that can verify the signature witness the join; f+1 distinct signed
// witnesses admit the joiner everywhere — the exact dual of the f+1
// departure-report rule, and for the same reason: f+1 witnesses cannot
// all be faulty, so an admitted joiner really did ask to join.
struct JoinRequestBody final : sim::Body<JoinRequestBody> {
  net::NodeId joiner = 0;
  std::uint64_t epoch = 0;
  Bytes signature;
};
// One signed admission witness, gossiped network-wide so every honest
// node converges on the same admission decision.
struct JoinWitnessBody final : sim::Body<JoinWitnessBody> {
  net::NodeId joiner = 0;
  net::NodeId witness = 0;
  std::uint64_t epoch = 0;
  Bytes signature;
};
// State catch-up for a joiner: the current epoch and the witness's
// per-origin sequence horizon. Merging the horizon into the joiner's own
// bookkeeping opens gaps for everything it missed, and the ordinary
// gap-pull machinery recovers the payloads — so the joiner participates
// without violating sequence-integrity. (Certified overlay generations
// are installed globally by the simulator; in a deployment the certified
// encodings would ride along here.)
struct StateCatchUpBody final : sim::Body<StateCatchUpBody> {
  std::uint64_t epoch = 0;
  std::vector<std::pair<net::NodeId, std::uint64_t>> max_seen;
};
// One Reed-Solomon shard of an erasure-coded batch (Section VIII-D).
struct BatchChunkBody final : sim::Body<BatchChunkBody> {
  TrsId trs;  // origin, batch sequence number, batch hash
  Bytes certificate;
  std::uint32_t base_overlay = 0;  // seed mod k; shard c rides (base+c) mod k
  std::uint32_t data_shards = 0;
  std::uint32_t total_shards = 0;
  // Wire size one shard occupies (the serialized metadata stands in for
  // payload bytes, so the charge is carried explicitly).
  std::uint32_t shard_wire_bytes = 0;
  std::uint64_t epoch = 0;
  crypto::Shard shard;
};

// Shared, immutable per-experiment state: the certified overlays (as every
// node would decode them from the committee's signed encoding) and the
// threshold scheme's public side.
struct HermesShared {
  HermesConfig config;
  // Overlay generation; bumped by HermesProtocol::advance_epoch.
  std::uint64_t epoch = 0;
  std::vector<overlay::Overlay> overlays;
  std::vector<overlay::CertifiedOverlay> certificates;
  std::shared_ptr<const crypto::ThresholdScheme> scheme;
  // Master key from which per-node report signers derive (simulation
  // stand-in for per-node public keys known network-wide).
  Bytes report_master_key;
  // committee[i] serves threshold index i+1.
  std::vector<net::NodeId> committee;
  // Bridge from the committee's health votes back to the epoch machinery,
  // set only when config.enable_self_healing: a committee member that
  // collects f+1 view-change votes for the current epoch calls it, and the
  // protocol advances the epoch at most once per epoch value, enforcing
  // the configured cooldown.
  std::function<void(std::uint64_t from_epoch)> request_view_change;
  // Bridge from per-node membership decisions to the background epoch
  // pipeline, set only when config.enable_epoch_pipeline: a node that
  // admits a joiner (f+1 witnesses) or marks a peer departed (f+1 reports)
  // calls it with the generation it acted in, and the protocol dedups the
  // reports inside a barrier-serialized control event before feeding the
  // pipeline's bounded delta queue (see make_node).
  std::function<void(net::NodeId node, bool join, std::uint64_t epoch)>
      notify_membership;

  bool is_committee_member(net::NodeId v) const;
  // 1-based threshold index; 0 if not a member.
  std::size_t committee_index(net::NodeId v) const;
};

class HermesNode final : public ProtocolNode {
 public:
  HermesNode(ExperimentContext& ctx, net::NodeId id,
             std::shared_ptr<const HermesShared> shared);

  void submit(const Transaction& tx) override;
  // Section VIII-D extension: disseminate a batch of transactions as
  // kBatchDataChunks + f erasure-coded shards, shard c riding overlay
  // (seed + c) mod k. Any kBatchDataChunks shards reconstruct the batch,
  // so up to f shard streams may fail entirely while each overlay carries
  // only 1/kBatchDataChunks of the batch's bytes. Consumes one sequence
  // number of this sender.
  void submit_batch(std::vector<Transaction> txs);
  // The adversary has no faster lane: the committee pins the sequence and
  // the seed pins the overlay. A direct blast is attempted anyway — honest
  // receivers reject and log it, which is the accountability story.
  void fast_submit(const Transaction& tx) override;
  void on_message(const sim::Message& msg) override;
  // Starts the health tick when self-healing is enabled.
  void on_start() override;
  // Join admission (churn layer): broadcast a signed JoinRequest to the
  // physical neighborhood. Called by a node (re)entering the network —
  // in the simulator, right after its crash flag clears. No-op unless
  // enable_self_healing is set.
  void begin_join();

  const AuditLog& audit() const { return audit_; }
  std::size_t trs_requests_sent() const { return trs_requests_; }
  // (id, neighbor) fallback offers sent: a digest of n ids to m sampled
  // neighbors counts n * m.
  std::size_t fallback_pushes() const { return fallback_pushes_; }
  std::size_t batches_decoded() const { return batches_decoded_; }
  // --- self-healing introspection
  const HealthMonitor& health() const { return monitor_; }
  // Canonical removal set (departed + globally excluded), ascending.
  const std::set<net::NodeId>& removed_nodes() const { return removed_; }
  // Locally repaired tree for overlay `idx` of the current generation, or
  // nullptr when no repair applies (empty removal set / healing off).
  const overlay::Overlay* repaired_overlay(std::size_t idx) const;
  std::size_t departure_reports_sent() const { return departure_reports_sent_; }
  // Admitted joiners (f+1 witnesses) not yet superseded by a fresh epoch,
  // ascending. Their routing-tree placements come from the incremental
  // join pass of rebuild_repairs().
  const std::set<net::NodeId>& rejoined_nodes() const { return rejoined_; }
  // Churn applications the current local-repair state could not absorb.
  std::size_t repair_failures() const { return monitor_.failed_repairs(); }
  // Offender excluded either by local observation or by f+1 distinct
  // signed accusations from the network.
  bool excluded(net::NodeId node) const;

  // View change (Section VII): adopt a new certified overlay generation.
  // The previous generation stays valid for in-flight messages; anything
  // older is dropped as stale (never audited — staleness is not malice).
  void install_shared(std::shared_ptr<const HermesShared> next);
  std::uint64_t current_epoch() const { return shared_->epoch; }
  // Origin-side: delivery acknowledgments collected for an own tx
  // (includes the origin itself). 0 when acks are disabled.
  std::size_t acks_received(std::uint64_t tx_id) const;
  // TRS round-trip cost observed by this node's own submissions.
  const RunningStats& trs_wait_ms() const { return trs_wait_ms_; }

  static constexpr std::uint32_t kMsgTrsRequest = 10;
  static constexpr std::uint32_t kMsgTrsEcho = 11;
  static constexpr std::uint32_t kMsgTrsReady = 12;
  static constexpr std::uint32_t kMsgTrsPartial = 13;
  static constexpr std::uint32_t kMsgData = 14;
  static constexpr std::uint32_t kMsgFallback = 15;
  static constexpr std::uint32_t kMsgFallbackOffer = 16;
  static constexpr std::uint32_t kMsgFallbackRequest = 17;
  static constexpr std::uint32_t kMsgBatchChunk = 18;
  static constexpr std::uint32_t kMsgAckUp = 19;
  static constexpr std::uint32_t kMsgViolationReport = 20;
  static constexpr std::uint32_t kMsgDepartureReport = 21;
  static constexpr std::uint32_t kMsgViewChangeVote = 22;
  static constexpr std::uint32_t kMsgSeqDigest = 23;
  static constexpr std::uint32_t kMsgJoinRequest = 24;
  static constexpr std::uint32_t kMsgJoinWitness = 25;
  static constexpr std::uint32_t kMsgStateCatchUp = 26;

  // Physical neighbors sampled per fallback offer digest and per gap pull.
  static constexpr std::size_t kFallbackFanout = 2;
  // Physical neighbors sampled per gossiped signed report, departure
  // notice, join witness and view-change vote (Section VI-C).
  static constexpr std::size_t kReportFanout = 3;
  // TRS request attempts, kTrsRetryMs apart, before the origin gives up
  // and drops the pending entry (Section IV step 1).
  static constexpr int kTrsRetryMaxAttempts = 12;
  // A committee member that voted for a view change re-arms once its
  // degradation score falls below this (hysteresis).
  static constexpr double kViewChangeClear = 1.0;
  // Data shards of an erasure-coded batch (submit_batch).
  static constexpr std::size_t kBatchDataChunks = 3;

 private:
  // --- sender side
  void request_trs(const Transaction& tx);
  void send_trs_request(const TrsId& trs, int attempt);
  void on_trs_partial(const sim::Message& msg);
  // Disseminates the pending tx or batch a completed certificate belongs to.
  void on_certified(const TrsId& trs, const Bytes& certificate);
  void disseminate(const Transaction& tx, const TrsId& trs,
                   const Bytes& certificate, std::size_t overlay_index);

  // --- committee side
  void on_trs_request(const sim::Message& msg);
  void on_trs_vote(const sim::Message& msg, bool is_ready);
  void committee_broadcast(std::uint32_t type, const TrsId& trs);
  crypto::PartialSignature partial_for(const TrsId& trs) const;
  void send_partial(const TrsId& trs, crypto::PartialSignature partial);
  // Bracha start for an in-order request: Echo, counting our own (and our
  // Ready if that tips it). False when the instance was already open.
  bool echo_request(BrachaState& state, const TrsId& trs);
  void maybe_progress(const TrsId& trs);
  void replay_parked(net::NodeId origin);

  // --- dissemination side
  void on_data(const sim::Message& msg);
  void on_batch_chunk(const sim::Message& msg);
  void on_ack_up(const sim::Message& msg);
  // Records locally and gossips a signed report (Section VI-C).
  void record_violation(ViolationKind kind, net::NodeId offender,
                        std::uint64_t tx_id);
  void on_violation_report(const sim::Message& msg);
  static Bytes report_material(const Violation& v, net::NodeId reporter);
  void start_ack_aggregation(std::uint64_t tx_id, std::size_t overlay_index);
  void flush_ack(std::uint64_t tx_id, std::size_t overlay_index);
  void disseminate_batch(const std::vector<Transaction>& txs, const TrsId& trs,
                         const Bytes& certificate, std::size_t base_overlay);
  struct BatchAssembly;
  // Sends shard `chunk` of `assembly` to this node's successors on its
  // overlay, once per shard index.
  void forward_chunk(BatchAssembly& assembly,
                     const std::shared_ptr<const BatchChunkBody>& chunk);
  void absorb_chunk(BatchAssembly& assembly, const BatchChunkBody& chunk);
  void on_fallback(const sim::Message& msg);
  void on_fallback_offer(const sim::Message& msg);
  void on_fallback_request(const sim::Message& msg);
  // The tree check shared by transactions and batch shards: the
  // certificate, then the overlay its seed selects, then `src` as a
  // predecessor on `overlay_index` (with the self-healing leniency).
  // `verified`: the copy's TRS and certificate equal ones this node holds
  // (see verified_copy), so the certificate is not checked again.
  // Records the violation and returns false on the first failure.
  bool admissible(net::NodeId src, const HermesShared& shared,
                  const TrsId& trs, const Bytes& certificate, bool verified,
                  std::size_t seed_overlay, std::size_t overlay_index,
                  std::uint64_t tx_id);
  // Section VI-B binds every data message to its TRS: a body must carry
  // the transaction the certificate covers, or a relay could ride a
  // victim's certificate with its own transaction. Checked while the body
  // can still be delivered or forwarded here; a mismatch records
  // kBadCertificate against `src` and returns false.
  bool bound_to_trs(net::NodeId src, const DataBody& d);
  void accept_and_forward(const HermesShared& shared,
                          const std::shared_ptr<const DataBody>& body);
  // The held record is the transaction's pool entry: the body this node
  // received (or, at the origin, built), kept for fallback pulls, ack
  // routing and the certificate rule, and whether this node has forwarded
  // it. remember() binds `body` to the entry the first time (queuing its
  // offer rounds); the entry must exist.
  void remember(const std::shared_ptr<const DataBody>& body);
  // The body bound to `tx_id`'s entry; nullptr when this node holds none.
  const DataBody* find_held(std::uint64_t tx_id) const;
  // Whether `d` carries the TRS and certificate of the body this node
  // holds for its transaction. That body's certificate was verified on
  // arrival or built here from the combined signature, so an equal copy
  // needs no second verification; any other copy is verified.
  bool verified_copy(const DataBody& d) const;
  // Resolves the overlay generation a message claims; nullptr when stale.
  const HermesShared* shared_for_epoch(std::uint64_t epoch) const;
  // Queues the offer rounds of a freshly forwarded tx id.
  void schedule_fallback(std::uint64_t tx_id);
  void fallback_tick();

  // --- self-healing side
  bool healing_enabled() const { return shared_->config.enable_self_healing; }
  // The tree actually used for forwarding: the locally repaired copy when
  // one exists for the current generation, the pristine overlay otherwise.
  const overlay::Overlay& routing_overlay(const HermesShared& shared,
                                          std::size_t idx) const;
  void health_tick();
  void pull_gaps(sim::SimTime now_ms);
  void scan_for_silence(sim::SimTime now_ms);
  void send_seq_digest();
  void on_seq_digest(const sim::Message& msg);
  // Raises the monitor's per-origin horizon to a peer's (digest or
  // catch-up); out-of-range origins are dropped as malformed.
  void merge_horizon(
      const std::vector<std::pair<net::NodeId, std::uint64_t>>& max_seen);
  void mark_removed(net::NodeId node);
  void rebuild_repairs();
  void report_departure(net::NodeId suspect);
  void on_departure_report(const sim::Message& msg);
  static Bytes departure_material(net::NodeId suspect, net::NodeId reporter,
                                  std::uint64_t epoch);
  void cast_view_change_vote();
  void on_view_change_vote(const sim::Message& msg);
  void maybe_trigger_view_change(std::uint64_t epoch);
  static Bytes view_change_material(std::uint64_t epoch, net::NodeId voter);

  // --- join admission side
  void on_join_request(const sim::Message& msg);
  void on_join_witness(const sim::Message& msg);
  void on_state_catchup(const sim::Message& msg);
  void witness_join(net::NodeId joiner, std::uint64_t epoch);
  void admit_join(net::NodeId joiner);
  void notify_membership(net::NodeId node, bool join);
  static Bytes join_material(net::NodeId joiner, std::uint64_t epoch);
  static Bytes join_witness_material(net::NodeId joiner, net::NodeId witness,
                                     std::uint64_t epoch);

  // --- signed evidence: violation reports, departure reports, join
  // witnesses and view-change votes.
  // f+1 signed evidence of one kind: the materials accepted so far, and
  // per subject the distinct nodes that signed against it.
  struct EvidenceTally {
    std::unordered_set<std::string> accepted_materials;
    std::unordered_map<net::NodeId, std::unordered_set<net::NodeId>>
        signers_by_subject;
    // False when `material` was accepted before.
    bool accept(const Bytes& material) {
      return accepted_materials.insert(hex_encode(material)).second;
    }
    // Counts `signer` against `subject`; returns its distinct signers.
    std::size_t count(net::NodeId subject, net::NodeId signer) {
      auto& backers = signers_by_subject[subject];
      backers.insert(signer);
      return backers.size();
    }
    // Whether `signer` is counted against `subject`.
    bool has(net::NodeId subject, net::NodeId signer) const {
      const auto it = signers_by_subject.find(subject);
      return it != signers_by_subject.end() && it->second.count(signer) > 0;
    }
  };
  // This node's signature over `material`.
  Bytes sign(const Bytes& material) const;
  // Whether node `signer` (a valid node id) signed `material`.
  bool signed_by(net::NodeId signer, const Bytes& material,
                 const Bytes& signature) const;
  // Received evidence: `subject` and `signer` are node ids, the signature
  // verifies, and `tally` had not accepted the material before (it has
  // now).
  bool accept_evidence(EvidenceTally& tally, net::NodeId subject,
                       net::NodeId signer, const Bytes& material,
                       const Bytes& signature);
  // Sends `body` to kReportFanout sampled physical neighbors.
  void gossip(std::uint32_t type, std::size_t wire,
              std::shared_ptr<const sim::MessageBody> body);

  // Vertex-disjoint physical routes from this node to the entry points of
  // overlay `idx` (computed lazily, cached).
  const std::vector<std::vector<net::NodeId>>& entry_routes(std::size_t idx);

  std::shared_ptr<const HermesShared> shared_;
  std::shared_ptr<const HermesShared> prev_shared_;
  Rng rng_;
  AuditLog audit_;

  // Sender-side state.
  TrsCollector collector_;
  std::unordered_map<std::string, Transaction> pending_;
  // Batches awaiting their TRS, keyed like pending_: the origin's own
  // record of the members, which its pool entries share.
  std::unordered_map<std::string,
                     std::shared_ptr<const std::vector<Transaction>>>
      pending_batches_;
  std::size_t trs_requests_ = 0;

  // Committee-side state.
  std::unique_ptr<TrsCommitteeMember> committee_state_;
  // Requests parked for sequence continuity: origin -> seq -> tuple.
  std::unordered_map<net::NodeId, std::map<std::uint64_t, TrsId>> parked_;

  // Dissemination state.
  std::unordered_map<std::size_t, std::vector<std::vector<net::NodeId>>>
      route_cache_;
  // Fallback offer rounds still to send. Due ticks only grow, so the queue
  // stays sorted by pushing at the back.
  struct FallbackDue {
    std::uint64_t tick = 0;
    std::uint64_t tx_id = 0;
    int round = 0;
  };
  // The tick timer runs every T/4 exactly while this is non-empty.
  std::deque<FallbackDue> fallback_due_;
  // Fallback ticks so far; arming the timer counts as one.
  std::uint64_t fallback_tick_ = 0;
  sim::SimTime fallback_tick_ms_ = 0.0;  // when the last tick fired
  std::size_t fallback_pushes_ = 0;
  RunningStats trs_wait_ms_;

  // Batch reassembly: trs key -> collected shards (+ decode bookkeeping),
  // created by the batch's first admitted shard.
  struct BatchAssembly {
    // That shard's certificate (or, at the origin, the one it built):
    // later shards carrying it skip verification, as bodies do.
    Bytes certificate;
    std::vector<crypto::Shard> shards;
    std::vector<std::size_t> forwarded;  // shard indices sent on
    std::uint32_t data_shards = 0;
    bool decoded = false;
  };
  // Ack aggregation: per tx, counts gathered from the subtree; flushed
  // upward once after kAckAggregateMs, late arrivals forwarded directly.
  struct AckState {
    std::uint32_t pending = 0;
    bool flushed = false;
  };
  std::unordered_map<std::uint64_t, AckState> ack_state_;
  std::unordered_map<std::uint64_t, std::size_t> acks_of_;  // origin side
  // Accountability gossip state: signed accusations per offender.
  EvidenceTally accusations_;
  std::unordered_set<net::NodeId> global_excluded_;
  std::unordered_map<std::string, BatchAssembly> batches_;
  std::size_t batches_decoded_ = 0;

  // --- self-healing state (all empty/inert when enable_self_healing is
  // off; nothing below touches the message trace then).
  // Also the only record of each origin's sequence progress.
  HealthMonitor monitor_;
  // Canonical removal set: departed (f+1 departure reports) plus globally
  // excluded peers. std::set so repairs apply in ascending node-id order —
  // two honest nodes with equal sets converge to byte-identical trees
  // regardless of the order they learned the removals in.
  std::set<net::NodeId> removed_;
  // Repaired trees of the *current* generation, rebuilt from the pristine
  // overlays whenever removed_ changes (pure function of both).
  std::unordered_map<std::size_t, overlay::Overlay> repaired_;
  // overlay index -> predecessor -> last time it fed us on that overlay.
  // The inner map is iterated by the silent-predecessor scan; ordered so
  // suspect selection never inherits stdlib hash order.
  std::unordered_map<std::size_t, std::map<net::NodeId, double>>
      overlay_recv_;
  // Consecutive silent health ticks per suspect predecessor. Ordered for
  // a reproducible strike/report sequence.
  std::map<net::NodeId, std::size_t> silence_count_;
  EvidenceTally departures_;  // signed departure reports per suspect
  std::size_t departure_reports_sent_ = 0;
  // Throttle: last gap-pull time per origin.
  std::unordered_map<net::NodeId, double> last_pull_ms_;
  // View-change votes collected per epoch (committee members only).
  std::unordered_map<std::uint64_t, std::unordered_set<net::NodeId>>
      view_change_votes_;
  // Hysteresis latch: disarmed after voting, re-armed only once the
  // degradation score falls below kViewChangeClear.
  bool view_change_armed_ = true;
  // --- join-admission state (empty/inert unless enable_self_healing).
  // Admitted joiners, ascending: rebuild_repairs() detaches and re-attaches
  // them (after the removal pass) in std::set order, so two honest nodes
  // with equal (removed_, rejoined_) sets hold byte-identical trees no
  // matter which order the admissions arrived in. Cleared when a fresh
  // epoch generation is installed — the new trees supersede join state.
  std::set<net::NodeId> rejoined_;
  EvidenceTally join_witnesses_;  // signed admission witnesses per joiner
};

// Builds the overlays (offline phase of Figure 1), certifies them with the
// committee, and creates HermesNode instances.
class HermesProtocol final : public Protocol {
 public:
  explicit HermesProtocol(HermesConfig config) : config_(std::move(config)) {}
  std::string_view name() const override { return "hermes"; }
  std::unique_ptr<ProtocolNode> make_node(ExperimentContext& ctx,
                                          net::NodeId id) override;

  // Exposes the shared state (overlays, committee) once built.
  std::shared_ptr<const HermesShared> shared() const { return shared_; }

  // Section VII view change: rebuilds and re-certifies the k overlays
  // (deterministically from `epoch_seed`), keeps committee and keys, and
  // installs the new generation on every node. In a deployment the
  // certified encodings travel the network (their size is what Figure 3b's
  // per-view-change row charges); the simulator installs them directly.
  void advance_epoch(ExperimentContext& ctx, std::uint64_t epoch_seed);

  // Epoch advances triggered by the committee's health votes (subset of all
  // advances; manual churn-driven calls are not counted here).
  std::uint64_t auto_advances() const { return auto_advances_; }

  // --- epoch pipeline introspection (all zero when the pipeline is off).
  // Warm-started background rebuilds installed without stopping traffic.
  std::uint64_t pipelined_advances() const {
    return pipeline_ ? pipeline_->pipelined_installs() : 0;
  }
  // Full stop-the-world scratch rebuilds (manual churn events plus
  // health-triggered view changes).
  std::uint64_t stop_the_world_advances() const { return stw_advances_; }
  std::uint64_t pipeline_invalidations() const {
    return pipeline_ ? pipeline_->invalidations() : 0;
  }
  std::uint64_t deltas_absorbed_incrementally() const {
    return pipeline_ ? pipeline_->absorbed_incrementally() : 0;
  }

  // Observer called after every generation install (scratch and pipelined)
  // with the new shared state and the sim time it took effect; the fuzzer
  // uses it to timestamp epoch transitions for the transition-safety
  // checker. Set before the run starts.
  using InstallObserver =
      std::function<void(std::shared_ptr<const HermesShared>, double now_ms)>;
  void set_install_observer(InstallObserver observer) {
    install_observer_ = std::move(observer);
  }

 private:
  // Algorithm 5: the committee certifies each overlay of `set` and
  // `shared` keeps the decoded trees, exactly what the wire carried; they
  // also seed the next warm rebuild.
  void certify(HermesShared& shared, overlay::OverlaySet&& set);
  void install_generation(ExperimentContext& ctx,
                          std::shared_ptr<HermesShared> next,
                          overlay::OverlaySet&& set);
  void install_pipelined(ExperimentContext& ctx,
                         const std::vector<MembershipDelta>& deltas);
  std::shared_ptr<HermesShared> clone_shared_for_next_epoch() const;

  HermesConfig config_;
  std::shared_ptr<const HermesShared> shared_;
  // Anti-flapping state for health-triggered view changes.
  double last_auto_advance_ms_ = -1e300;
  std::uint64_t auto_advances_ = 0;
  std::uint64_t stw_advances_ = 0;
  // Physical shortest-path cache for the joins of warm rebuilds: the graph
  // never changes between epochs, so each joiner's row is computed once.
  std::unique_ptr<overlay::LinkCostCache> costs_;
  // Last built overlay set (decoded trees + accumulated ranks): the warm
  // seed for the next pipelined rebuild.
  overlay::OverlaySet last_set_;
  std::unique_ptr<EpochPipeline> pipeline_;
  // Last membership state this protocol acted on, per node (true =
  // present). Every honest node reports each admission/departure; only the
  // first report of a state change feeds the pipeline queue. Ordered map
  // for reproducible bookkeeping (never iterated onto the wire).
  std::map<net::NodeId, bool> membership_state_;
  // Highest admission epoch already acted on per node, stored as epoch+1
  // (0 = never admitted). Gates the implicit leave+join a
  // re-admission-while-present implies: one conversion per admission,
  // however many honest nodes report it.
  std::map<net::NodeId, std::uint64_t> rejoin_epoch_;
  InstallObserver install_observer_;
};

// Picks the committee for the experiment: 3f+1 members with at most f
// non-honest ones, matching the system model's assumption that the
// committee is not quorum-compromised (Section III). Call after
// assign_behaviors and before populate.
std::vector<net::NodeId> pick_committee(const ExperimentContext& ctx,
                                        std::size_t f, Rng& rng);

}  // namespace hermes::hermes_proto
