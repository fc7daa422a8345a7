// Invariant oracle for fuzzed scenario runs.
//
// The suite is a pure observer: it subscribes to the network send tap,
// snapshots every certified overlay generation, and at the end of the run
// folds that send stream together with the final node state (first
// deliveries are read from the honest mempools' arrival logs) into a
// verdict. Checked properties (the paper's core claims, scoped to regimes
// where they are decidable):
//
//   no-duplicate-delivery   no honest node delivers a transaction twice
//                           (no arrival log lists an id twice)
//   sequence-integrity      every delivered id with an honest origin was
//                           actually injected by that origin (no
//                           fabricated or skipped sequence numbers)
//   overlay-consistency     every honest Data/BatchChunk/Fallback send
//                           claims overlay seed mod k for its certificate,
//                           and all honest nodes agree per transaction
//   no-false-accusation     violations recorded by honest nodes only ever
//                           name Byzantine offenders; no honest node
//                           excludes another honest node
//   fallback-activation     disabled fallback stays silent; in benign runs
//                           with a generous delay no hole-repair pull ever
//                           fires (fallback activates only under faults)
//   overlay-connectivity    every certified overlay generation validates
//                           and survives removal of any f nodes
//   coverage                injected transactions reach the honest,
//                           never-crashed population (exact in benign
//                           runs, f-slack under churn, lenient-threshold
//                           when the gossip fallback is carrying faults)
//   repair-convergence      with self-healing on, honest never-crashed
//                           nodes that agree on a removal set hold
//                           byte-identical locally repaired overlays
//   recovery-liveness       with self-healing on (in regimes where
//                           recovery is decidable), every certified
//                           transaction reaches *every* eligible honest
//                           node — the repair loop closes the holes the
//                           coverage allowance would otherwise tolerate
//   epoch-transition-safety every honest Data/BatchChunk send claims an
//                           epoch that was the installed generation (or
//                           its immediate predecessor, which nodes may
//                           lawfully still serve) at the send's sim time —
//                           no message rides a mixed-epoch overlay view
//                           across a pipelined or stop-the-world handoff
//   transition-connectivity with self-healing on, every honest
//                           never-crashed node whose local repairs all
//                           succeeded holds routing trees that stay valid
//                           f+1-connected views with its removed set
//                           absent, and every admitted joiner is placed —
//                           connectivity survives join/leave transitions
//   mempool-pressure        under sustained load every honest mempool
//                           respects its capacity bound, accounts for
//                           every admitted transaction (resident or
//                           evicted — nothing vanishes), logs only
//                           fee-lawful evictions (incoming strictly
//                           outranks the evicted minimum) and keeps
//                           each origin's sustained-load stream in
//                           sequence order (no cross-tx interleaving at
//                           the origin)
//
// Mutations corrupt the *observations* just before the verdict — they
// simulate a protocol that broke the corresponding property, proving
// each checker is live (and giving the shrinker a stable failure to
// minimize) without touching protocol code.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "fuzz/scenario.hpp"
#include "hermes/hermes_node.hpp"
#include "protocols/base.hpp"
#include "sim/message.hpp"

namespace hermes::fuzz {

enum class Mutation : std::uint8_t {
  kNone,
  kDuplicateDelivery,
  kSequenceFabrication,
  kWrongOverlay,
  kFalseAccusation,
  kOverlayDeficit,
  kRepairDivergence,
  kLostRecovery,
  kPhantomEviction,
  kEpochSkew,
  kTransitionCut,
};

const char* mutation_name(Mutation m);
std::optional<Mutation> mutation_from(const std::string& name);

struct Failure {
  std::string checker;
  std::string detail;
};

class InvariantSuite {
 public:
  InvariantSuite(const Scenario& scenario, protocols::ExperimentContext& ctx);

  // --- observation feed (wired by the runner)
  void on_send(sim::SimTime at, const sim::Message& msg);
  void note_injected(std::uint64_t tx_id, bool batch_member);
  // Marks an injected tx as part of the sustained-load stream (stricter
  // per-origin sequencing rules apply to those).
  void note_load(std::uint64_t tx_id);
  void add_generation(
      const std::shared_ptr<const hermes_proto::HermesShared>& shared);
  // Records that generation `epoch` became the installed view at `at_ms`
  // (initial build, manual view change, health vote, pipelined handoff).
  // The epoch-transition-safety checker resolves each send against this
  // timeline.
  void note_install(std::uint64_t epoch, double at_ms);
  // Number of health-triggered (automatic) view changes during the run;
  // folded into the epoch-advance budget of the coverage oracle.
  void set_auto_epoch_advances(std::uint64_t n) { auto_epoch_advances_ = n; }

  // Corrupts recorded observations (see header comment).
  void apply_mutation(Mutation m);

  // Runs every end-of-run check; empty result means all invariants held.
  std::vector<Failure> finish();

 private:
  struct CertifiedSend {
    net::NodeId src = 0;
    // Data/Fallback: tx id. BatchChunk: the TrsId key (one per batch).
    std::string item_key;
    std::uint32_t overlay_index = 0;
    Bytes certificate;
    std::uint32_t msg_type = 0;
    std::uint64_t epoch = 0;
    sim::SimTime when = 0.0;
  };

  bool honest(net::NodeId v) const {
    return ctx_.behaviors[v] == protocols::Behavior::kHonest;
  }

  void check_duplicates(std::vector<Failure>& out) const;
  void check_sequences(std::vector<Failure>& out) const;
  void check_overlay_consistency(std::vector<Failure>& out) const;
  void check_accusations(std::vector<Failure>& out) const;
  void check_fallback(std::vector<Failure>& out) const;
  void check_connectivity(std::vector<Failure>& out) const;
  void check_coverage(std::vector<Failure>& out) const;
  // Self-healing checks (only bite when scenario_.self_healing):
  // honest nodes that agree on the removal set hold byte-identical
  // repaired overlays; certified transactions still reach every eligible
  // honest node in regimes where recovery is decidable.
  void check_repair_convergence(std::vector<Failure>& out) const;
  void check_recovery_liveness(std::vector<Failure>& out) const;
  // Churn-resilience checks: tree sends never straddle more than the
  // two-generation install window, and locally repaired routing views stay
  // f+1-connected (with admitted joiners placed) across transitions.
  void check_epoch_transition_safety(std::vector<Failure>& out) const;
  void check_transition_connectivity(std::vector<Failure>& out) const;
  void check_mempool_pressure(std::vector<Failure>& out) const;
  // True when the physical graph restricted to honest, never-crashed nodes
  // is connected — the precondition for fallback-driven repair.
  bool honest_subgraph_connected() const;

  const Scenario& scenario_;
  protocols::ExperimentContext& ctx_;

  std::vector<char> ever_crashed_;

  // Ids delivered at honest nodes, read from their arrival logs at
  // finish(). Ordered so the sequence-integrity report enumerates ids
  // ascending without a sort at report time.
  std::set<std::uint64_t> honest_delivered_;

  // Send stream (honest sources only).
  std::vector<CertifiedSend> certified_sends_;
  std::size_t honest_fallback_pushes_ = 0;
  std::size_t honest_fallback_offers_ = 0;
  std::size_t honest_fallback_requests_ = 0;

  // Injections, in id order for deterministic reporting.
  std::map<std::uint64_t, bool> injected_;  // id -> batch member
  // Subset of injected_ that belongs to the sustained-load stream.
  std::set<std::uint64_t> load_injected_;

  // Certified overlay generations (copied so mutations may corrupt them).
  std::vector<std::vector<overlay::Overlay>> generations_;
  const void* last_generation_ = nullptr;  // dedup repeated add_generation

  // Install timeline: (sim time, epoch) per generation install, in event
  // order (epochs ascend because install_shared rejects stale generations).
  std::vector<std::pair<double, std::uint64_t>> installs_;

  std::uint64_t auto_epoch_advances_ = 0;

  bool synthetic_duplicate_ = false;
  std::vector<std::pair<net::NodeId, net::NodeId>> synthetic_accusations_;
  bool synthetic_repair_divergence_ = false;
  std::vector<std::uint64_t> synthetic_lost_;
  bool synthetic_phantom_eviction_ = false;
  bool synthetic_transition_cut_ = false;
};

}  // namespace hermes::fuzz
