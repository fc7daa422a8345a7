#include "fuzz/invariants.hpp"

#include <algorithm>
#include <sstream>

#include "hermes/trs.hpp"
#include "overlay/encoding.hpp"
#include "overlay/overlay.hpp"
#include "overlay/repair.hpp"
#include "support/rng.hpp"

namespace hermes::fuzz {

using hermes_proto::BatchChunkBody;
using hermes_proto::DataBody;
using hermes_proto::HermesNode;
using protocols::Behavior;

namespace {

// Per-checker failure cap: a broken invariant usually fires on many
// observations; a handful of witnesses is enough to act on.
constexpr std::size_t kMaxFailuresPerChecker = 8;

// Bound on explicit f-subset enumeration per overlay (beyond it, subsets
// are sampled deterministically).
constexpr std::size_t kMaxRemovalSubsets = 20000;

void add_failure(std::vector<Failure>& out, std::size_t before,
                 const char* checker, std::string detail) {
  if (out.size() - before >= kMaxFailuresPerChecker) return;
  out.push_back(Failure{checker, std::move(detail)});
}

}  // namespace

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kNone:
      return "none";
    case Mutation::kDuplicateDelivery:
      return "duplicate-delivery";
    case Mutation::kSequenceFabrication:
      return "sequence-fabrication";
    case Mutation::kWrongOverlay:
      return "wrong-overlay";
    case Mutation::kFalseAccusation:
      return "false-accusation";
    case Mutation::kOverlayDeficit:
      return "overlay-deficit";
    case Mutation::kRepairDivergence:
      return "repair-divergence";
    case Mutation::kLostRecovery:
      return "lost-recovery";
    case Mutation::kPhantomEviction:
      return "phantom-eviction";
    case Mutation::kEpochSkew:
      return "epoch-skew";
    case Mutation::kTransitionCut:
      return "transition-cut";
  }
  return "?";
}

std::optional<Mutation> mutation_from(const std::string& name) {
  for (Mutation m :
       {Mutation::kNone, Mutation::kDuplicateDelivery,
        Mutation::kSequenceFabrication, Mutation::kWrongOverlay,
        Mutation::kFalseAccusation, Mutation::kOverlayDeficit,
        Mutation::kRepairDivergence, Mutation::kLostRecovery,
        Mutation::kPhantomEviction, Mutation::kEpochSkew,
        Mutation::kTransitionCut}) {
    if (name == mutation_name(m)) return m;
  }
  return std::nullopt;
}

InvariantSuite::InvariantSuite(const Scenario& scenario,
                               protocols::ExperimentContext& ctx)
    : scenario_(scenario), ctx_(ctx), ever_crashed_(scenario.nodes, 0) {
  for (const ChurnEvent& ev : scenario_.churn) {
    if (ev.recover) continue;
    for (net::NodeId v : ev.nodes) {
      if (v < ever_crashed_.size()) ever_crashed_[v] = 1;
    }
  }
}

void InvariantSuite::on_send(sim::SimTime at, const sim::Message& msg) {
  if (!scenario_.hermes()) return;
  if (msg.src >= ctx_.behaviors.size() || !honest(msg.src)) return;
  switch (msg.type) {
    case HermesNode::kMsgFallback:
      // A pulled body is the holder's stored DataBody.
      ++honest_fallback_pushes_;
      [[fallthrough]];
    case HermesNode::kMsgData: {
      const auto* d = msg.try_as<DataBody>();
      if (d == nullptr) return;
      CertifiedSend rec;
      rec.src = msg.src;
      rec.item_key = std::to_string(d->tx.id);
      rec.overlay_index = d->overlay_index;
      rec.certificate = d->certificate;
      rec.msg_type = msg.type;
      rec.epoch = d->epoch;
      rec.when = at;
      certified_sends_.push_back(std::move(rec));
      break;
    }
    case HermesNode::kMsgBatchChunk: {
      const auto* c = msg.try_as<BatchChunkBody>();
      if (c == nullptr) return;
      CertifiedSend rec;
      rec.src = msg.src;
      rec.item_key = c->trs.key();
      rec.overlay_index = c->base_overlay;
      rec.certificate = c->certificate;
      rec.msg_type = msg.type;
      rec.epoch = c->epoch;
      rec.when = at;
      certified_sends_.push_back(std::move(rec));
      break;
    }
    case HermesNode::kMsgFallbackOffer:
      ++honest_fallback_offers_;
      break;
    case HermesNode::kMsgFallbackRequest:
      ++honest_fallback_requests_;
      break;
    default:
      break;
  }
}

void InvariantSuite::note_injected(std::uint64_t tx_id, bool batch_member) {
  injected_[tx_id] = batch_member;
}

void InvariantSuite::note_load(std::uint64_t tx_id) {
  load_injected_.insert(tx_id);
}

void InvariantSuite::add_generation(
    const std::shared_ptr<const hermes_proto::HermesShared>& shared) {
  if (!shared) return;
  // The runner snapshots again after the run in case a health-triggered
  // view change installed a new generation; skip it if nothing changed.
  if (shared.get() == last_generation_) return;
  last_generation_ = shared.get();
  generations_.push_back(shared->overlays);
}

void InvariantSuite::note_install(std::uint64_t epoch, double at_ms) {
  installs_.emplace_back(at_ms, epoch);
}

void InvariantSuite::apply_mutation(Mutation m) {
  const auto first_honest = [this](std::size_t skip) -> net::NodeId {
    for (net::NodeId v = 0; v < ctx_.behaviors.size(); ++v) {
      if (honest(v)) {
        if (skip == 0) return v;
        --skip;
      }
    }
    return 0;
  };
  switch (m) {
    case Mutation::kNone:
      break;
    case Mutation::kDuplicateDelivery: {
      synthetic_duplicate_ = true;
      break;
    }
    case Mutation::kSequenceFabrication: {
      const net::NodeId origin = scenario_.injections.empty()
                                     ? first_honest(0)
                                     : scenario_.injections.front().sender;
      honest_delivered_.insert(
          mempool::Transaction::make_id(origin, 0x7ffffffULL));
      break;
    }
    case Mutation::kWrongOverlay: {
      if (!certified_sends_.empty()) {
        auto& rec = certified_sends_.front();
        rec.overlay_index = static_cast<std::uint32_t>(
            (rec.overlay_index + 1) % std::max<std::size_t>(2, scenario_.k));
      }
      break;
    }
    case Mutation::kFalseAccusation: {
      synthetic_accusations_.emplace_back(first_honest(0), first_honest(1));
      break;
    }
    case Mutation::kOverlayDeficit: {
      if (generations_.empty() || generations_.front().empty()) break;
      overlay::Overlay& o = generations_.front().front();
      for (net::NodeId v = 0; v < o.node_count(); ++v) {
        if (o.is_entry(v) || o.predecessors(v).empty()) continue;
        const std::vector<net::NodeId> preds = o.predecessors(v);
        for (net::NodeId p : preds) o.remove_link(p, v);
        break;
      }
      break;
    }
    case Mutation::kRepairDivergence: {
      synthetic_repair_divergence_ = true;
      break;
    }
    case Mutation::kLostRecovery: {
      // Pretend one injected tx silently vanished from an eligible node.
      if (!injected_.empty()) {
        synthetic_lost_.push_back(injected_.begin()->first);
      } else {
        synthetic_lost_.push_back(mempool::Transaction::make_id(0, 1));
      }
      break;
    }
    case Mutation::kPhantomEviction: {
      // Pretend a mempool logged an eviction where the incoming tx did NOT
      // outrank the evicted one — a broken admission rule.
      synthetic_phantom_eviction_ = true;
      break;
    }
    case Mutation::kEpochSkew: {
      // Pretend one tree send claimed an epoch far beyond any installed
      // generation — a message riding a view no handoff ever produced.
      for (CertifiedSend& rec : certified_sends_) {
        if (rec.msg_type == HermesNode::kMsgFallback) continue;
        rec.epoch += 1000;
        break;
      }
      if (certified_sends_.empty()) {
        CertifiedSend rec;
        rec.src = first_honest(0);
        rec.item_key = "0";
        rec.msg_type = HermesNode::kMsgData;
        rec.epoch = 1000;
        certified_sends_.push_back(std::move(rec));
      }
      break;
    }
    case Mutation::kTransitionCut: {
      // Pretend a post-transition repaired routing view lost its f+1
      // connectivity on some honest node.
      synthetic_transition_cut_ = true;
      break;
    }
  }
}

void InvariantSuite::check_duplicates(std::vector<Failure>& out) const {
  const std::size_t before = out.size();
  if (synthetic_duplicate_) {
    add_failure(out, before, "no-duplicate-delivery",
                "an honest arrival log lists one tx twice (mutation)");
  }
  // A delivery appends to the arrival log, so the log holds one entry per
  // delivery; an evicted id offered again must not re-enter.
  for (net::NodeId v = 0; v < ctx_.node_count(); ++v) {
    if (!honest(v)) continue;
    std::unordered_set<std::uint64_t> seen;
    for (const mempool::Mempool::Entry& entry :
         ctx_.node(v).pool().arrival_log()) {
      const std::uint64_t id = entry.id();
      if (seen.insert(id).second) continue;
      std::ostringstream detail;
      detail << "honest node " << v << " delivered tx " << id << " twice";
      add_failure(out, before, "no-duplicate-delivery", detail.str());
    }
  }
}

void InvariantSuite::check_sequences(std::vector<Failure>& out) const {
  const std::size_t before = out.size();
  // honest_delivered_ is ordered: reports enumerate ids ascending.
  for (std::uint64_t id : honest_delivered_) {
    const std::uint64_t origin = id >> 32;
    if (origin >= scenario_.nodes) {
      std::ostringstream detail;
      detail << "delivered tx " << id << " names nonexistent origin "
             << origin;
      add_failure(out, before, "sequence-integrity", detail.str());
      continue;
    }
    if (!honest(static_cast<net::NodeId>(origin))) continue;
    if (injected_.count(id) == 0) {
      std::ostringstream detail;
      detail << "delivered tx " << id << " (origin " << origin << ", seq "
             << (id & 0xffffffffULL)
             << ") was never injected by that honest origin";
      add_failure(out, before, "sequence-integrity", detail.str());
    }
  }
}

void InvariantSuite::check_overlay_consistency(std::vector<Failure>& out) const {
  if (!scenario_.hermes()) return;
  const std::size_t before = out.size();
  const std::size_t k = std::max<std::size_t>(1, scenario_.k);
  std::unordered_map<std::string, const CertifiedSend*> first_of;
  for (const CertifiedSend& rec : certified_sends_) {
    const std::size_t expected = hermes_proto::select_overlay(rec.certificate, k);
    if (expected != rec.overlay_index) {
      std::ostringstream detail;
      detail << "honest node " << rec.src << " sent item " << rec.item_key
             << " on overlay " << rec.overlay_index
             << " but its certificate selects " << expected;
      add_failure(out, before, "overlay-consistency", detail.str());
    }
    auto [it, inserted] = first_of.try_emplace(rec.item_key, &rec);
    if (!inserted && it->second->certificate != rec.certificate) {
      std::ostringstream detail;
      detail << "honest nodes " << it->second->src << " and " << rec.src
             << " sent item " << rec.item_key
             << " with different certificates";
      add_failure(out, before, "overlay-consistency", detail.str());
    }
  }
}

void InvariantSuite::check_accusations(std::vector<Failure>& out) const {
  const std::size_t before = out.size();
  for (const auto& [accuser, offender] : synthetic_accusations_) {
    std::ostringstream detail;
    detail << "honest node " << accuser << " excluded honest node "
           << offender;
    add_failure(out, before, "no-false-accusation", detail.str());
  }
  if (!scenario_.hermes()) return;
  for (net::NodeId v = 0; v < ctx_.node_count(); ++v) {
    if (!honest(v)) continue;
    const auto* hn = dynamic_cast<const HermesNode*>(&ctx_.node(v));
    if (hn == nullptr) continue;
    for (const hermes_proto::Violation& violation : hn->audit().violations()) {
      if (violation.offender < ctx_.behaviors.size() &&
          honest(violation.offender)) {
        std::ostringstream detail;
        detail << "honest node " << v << " recorded "
               << hermes_proto::violation_name(violation.kind)
               << " against honest node " << violation.offender << " (tx "
               << violation.tx_id << ")";
        add_failure(out, before, "no-false-accusation", detail.str());
      }
    }
    for (net::NodeId u = 0; u < ctx_.node_count(); ++u) {
      if (u == v || !honest(u)) continue;
      if (hn->excluded(u)) {
        std::ostringstream detail;
        detail << "honest node " << v << " excluded honest node " << u;
        add_failure(out, before, "no-false-accusation", detail.str());
      }
    }
  }
}

void InvariantSuite::check_fallback(std::vector<Failure>& out) const {
  if (!scenario_.hermes()) return;
  const std::size_t before = out.size();
  if (!scenario_.enable_fallback) {
    if (honest_fallback_pushes_ + honest_fallback_offers_ +
            honest_fallback_requests_ >
        0) {
      std::ostringstream detail;
      detail << "fallback disabled but honest nodes sent "
             << honest_fallback_offers_ << " offers, "
             << honest_fallback_requests_ << " pulls, "
             << honest_fallback_pushes_ << " pushes";
      add_failure(out, before, "fallback-activation", detail.str());
    }
    return;
  }
  // In a benign run with a delay comfortably beyond the dissemination tail,
  // every node holds every transaction before the first offer fires — a
  // pull means the fallback activated without faults. Self-healing gap
  // pulls are FallbackRequests by design, so the rule is void there.
  if (scenario_.benign() && !scenario_.self_healing &&
      scenario_.fallback_delay_ms >= 2000.0 &&
      honest_fallback_requests_ > 0) {
    std::ostringstream detail;
    detail << "benign run (fallback delay " << scenario_.fallback_delay_ms
           << "ms) but honest nodes sent " << honest_fallback_requests_
           << " fallback pulls";
    add_failure(out, before, "fallback-activation", detail.str());
  }
}

void InvariantSuite::check_connectivity(std::vector<Failure>& out) const {
  if (!scenario_.hermes()) return;
  const std::size_t before = out.size();
  const std::size_t f = scenario_.f;
  for (std::size_t g = 0; g < generations_.size(); ++g) {
    for (std::size_t idx = 0; idx < generations_[g].size(); ++idx) {
      const overlay::Overlay& o = generations_[g][idx];
      for (const std::string& violation : o.validate()) {
        std::ostringstream detail;
        detail << "generation " << g << " overlay " << idx << ": "
               << violation;
        add_failure(out, before, "overlay-connectivity", detail.str());
      }
      if (f == 0) continue;
      const std::size_t n = o.node_count();
      // Enumerate f-subsets when feasible, otherwise sample.
      std::vector<std::vector<net::NodeId>> subsets;
      if (f == 1) {
        for (net::NodeId v = 0; v < n; ++v) subsets.push_back({v});
      } else if (f == 2 && n * (n - 1) / 2 <= kMaxRemovalSubsets) {
        for (net::NodeId a = 0; a < n; ++a) {
          for (net::NodeId b = a + 1; b < n; ++b) subsets.push_back({a, b});
        }
      } else {
        Rng rng(scenario_.seed ^ (g * 1315423911ULL) ^ idx);
        for (std::size_t i = 0; i < kMaxRemovalSubsets; ++i) {
          std::vector<net::NodeId> subset;
          for (std::size_t idx2 : rng.sample_indices(n, f)) {
            subset.push_back(static_cast<net::NodeId>(idx2));
          }
          subsets.push_back(std::move(subset));
        }
      }
      for (const auto& subset : subsets) {
        if (!overlay::survives_removal(o, subset)) {
          std::ostringstream detail;
          detail << "generation " << g << " overlay " << idx
                 << " disconnects after removing {";
          for (std::size_t i = 0; i < subset.size(); ++i) {
            detail << (i ? "," : "") << subset[i];
          }
          detail << "}";
          add_failure(out, before, "overlay-connectivity", detail.str());
          break;  // one witness per overlay is enough
        }
      }
    }
  }
}

bool InvariantSuite::honest_subgraph_connected() const {
  const net::Graph& g = ctx_.topology.graph;
  const std::size_t n = g.node_count();
  std::vector<char> eligible(n, 0);
  net::NodeId start = 0;
  bool found = false;
  std::size_t eligible_count = 0;
  for (net::NodeId v = 0; v < n; ++v) {
    if (honest(v) && !ever_crashed_[v]) {
      eligible[v] = 1;
      ++eligible_count;
      if (!found) {
        start = v;
        found = true;
      }
    }
  }
  if (!found) return false;
  std::vector<char> seen(n, 0);
  std::vector<net::NodeId> queue{start};
  seen[start] = 1;
  std::size_t reached = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const net::Edge& e : g.neighbors(queue[head])) {
      if (eligible[e.to] && !seen[e.to]) {
        seen[e.to] = 1;
        ++reached;
        queue.push_back(e.to);
      }
    }
  }
  return reached == eligible_count;
}

void InvariantSuite::check_coverage(std::vector<Failure>& out) const {
  // Regimes where final coverage is not decidable from the scenario alone:
  // partitions can outlive the fallback's offer rounds, and transit faults
  // can black-hole the (single-path) TRS round-trip itself.
  if (!scenario_.partitions.empty() || scenario_.transit_faults) return;
  if (scenario_.drain_ms < 4000.0) return;
  if (scenario_.max_concurrent_crashes() > scenario_.f) return;
  std::size_t epoch_advances = auto_epoch_advances_;
  for (const ChurnEvent& ev : scenario_.churn) {
    epoch_advances += ev.advance_epoch ? 1 : 0;
  }
  if (epoch_advances >= 2) return;  // stale-drop of a 2-generations-old cert

  // Link flaps silently drop in-window traffic, so they demote the run to
  // the repair tier; stragglers only delay and the drain already covers it.
  const bool churn_only = scenario_.byzantine.empty() && !scenario_.blind_blast &&
                          scenario_.drop_probability == 0.0 &&
                          scenario_.link_flaps.empty();
  enum class Tier { kExact, kSlack, kRepair } tier;
  if (scenario_.benign()) {
    tier = Tier::kExact;
  } else if (!scenario_.hermes()) {
    return;  // gossip has no repair story; only the benign bound is a claim
  } else if (churn_only) {
    tier = Tier::kSlack;
  } else {
    if (!scenario_.enable_fallback) return;
    if (scenario_.drop_probability > 0.15) return;
    if (!honest_subgraph_connected()) return;
    tier = Tier::kRepair;
  }

  std::vector<net::NodeId> eligible;
  for (net::NodeId v = 0; v < ctx_.node_count(); ++v) {
    if (honest(v) && !ever_crashed_[v]) eligible.push_back(v);
  }

  const std::size_t before = out.size();
  for (const auto& [id, batch_member] : injected_) {
    if (tier == Tier::kRepair && batch_member) continue;  // no member fallback
    const net::NodeId sender = static_cast<net::NodeId>(id >> 32);
    std::size_t population = 0;
    std::size_t missed = 0;
    for (net::NodeId v : eligible) {
      if (v == sender) continue;
      ++population;
      if (!ctx_.tracker.delivered(id, v)) ++missed;
    }
    // Total loss under random message drops means the single-shot TRS
    // certification round-trip itself was dropped: no certificate ever
    // existed, so there was nothing for the fallback to repair. The
    // resilience claim covers dissemination of *certified* transactions;
    // partial delivery beyond the allowance is still a failure.
    if (tier == Tier::kRepair && scenario_.drop_probability > 0.0 &&
        missed == population) {
      continue;
    }
    std::size_t allowance = 0;
    switch (tier) {
      case Tier::kExact:
        allowance = 0;
        break;
      case Tier::kSlack:
        allowance = scenario_.f;
        break;
      case Tier::kRepair: {
        // Base 30% slack, widened with the drop rate: a repair needs an
        // offer/pull/push chain to survive, so random drops compound.
        const double frac = 0.30 + 2.0 * scenario_.drop_probability;
        allowance = std::max<std::size_t>(
            scenario_.f + 1,
            static_cast<std::size_t>(static_cast<double>(population) * frac));
        break;
      }
    }
    if (missed > allowance) {
      std::ostringstream detail;
      detail << "tx " << id << " missed " << missed << "/" << population
             << " eligible honest nodes (allowance " << allowance << ")";
      add_failure(out, before, "coverage", detail.str());
    }
  }
}

void InvariantSuite::check_repair_convergence(std::vector<Failure>& out) const {
  if (!scenario_.hermes() || !scenario_.self_healing) return;
  const std::size_t before = out.size();
  if (synthetic_repair_divergence_) {
    add_failure(out, before, "repair-convergence",
                "synthetic repaired-overlay divergence (mutation)");
  }
  // Local repair is a pure function of (pristine overlays, removal set
  // applied in ascending id order), so honest never-crashed nodes whose
  // removal sets agree must hold byte-identical repaired trees.
  std::map<std::vector<net::NodeId>, std::vector<const HermesNode*>> groups;
  for (net::NodeId v = 0; v < ctx_.node_count(); ++v) {
    if (!honest(v) || ever_crashed_[v]) continue;
    const auto* hn = dynamic_cast<const HermesNode*>(&ctx_.node(v));
    if (hn == nullptr) continue;
    std::vector<net::NodeId> key(hn->removed_nodes().begin(),
                                 hn->removed_nodes().end());
    groups[std::move(key)].push_back(hn);
  }
  for (const auto& [removal, members] : groups) {
    if (members.size() < 2) continue;
    const HermesNode* ref = members.front();
    for (std::size_t idx = 0; idx < scenario_.k; ++idx) {
      const overlay::Overlay* base = ref->repaired_overlay(idx);
      const Bytes base_bytes =
          base ? overlay::encode_overlay(*base) : Bytes{};
      for (std::size_t m = 1; m < members.size(); ++m) {
        const overlay::Overlay* other = members[m]->repaired_overlay(idx);
        const bool mismatch =
            (base == nullptr) != (other == nullptr) ||
            (other != nullptr && overlay::encode_overlay(*other) != base_bytes);
        if (mismatch) {
          std::ostringstream detail;
          detail << "nodes " << ref->id() << " and " << members[m]->id()
                 << " share removal set {";
          for (std::size_t i = 0; i < removal.size(); ++i) {
            detail << (i ? "," : "") << removal[i];
          }
          detail << "} but diverge on repaired overlay " << idx;
          add_failure(out, before, "repair-convergence", detail.str());
        }
      }
    }
  }
}

void InvariantSuite::check_recovery_liveness(std::vector<Failure>& out) const {
  if (!scenario_.hermes() || !scenario_.self_healing) return;
  // Decidable regime only: no random drops or partitions (the repair loop
  // is then the only lossy element), crashes within the f budget, at most
  // one overlay generation swap, a connected honest core, and enough drain
  // for digests to spread and gap pulls to drain multi-hop holes.
  if (!scenario_.enable_fallback) return;
  if (scenario_.drop_probability > 0.0 || !scenario_.partitions.empty() ||
      scenario_.transit_faults) {
    return;
  }
  if (scenario_.max_concurrent_crashes() > scenario_.f) return;
  std::size_t epoch_advances = auto_epoch_advances_;
  for (const ChurnEvent& ev : scenario_.churn) {
    epoch_advances += ev.advance_epoch ? 1 : 0;
  }
  if (epoch_advances >= 2) return;
  if (!honest_subgraph_connected()) return;
  if (scenario_.drain_ms < 8000.0) return;

  std::vector<net::NodeId> eligible;
  for (net::NodeId v = 0; v < ctx_.node_count(); ++v) {
    if (honest(v) && !ever_crashed_[v]) eligible.push_back(v);
  }

  const std::size_t before = out.size();
  for (std::uint64_t id : synthetic_lost_) {
    std::ostringstream detail;
    detail << "tx " << id << " lost on an eligible node (mutation)";
    add_failure(out, before, "recovery-liveness", detail.str());
  }
  for (const auto& [id, batch_member] : injected_) {
    if (batch_member) continue;  // members have no per-seq pull identity
    const net::NodeId sender = static_cast<net::NodeId>(id >> 32);
    // Certified iff some eligible non-origin node delivered it: an
    // uncertified tx (e.g. its TRS round parked behind a crashed origin)
    // has nothing to recover.
    bool certified = false;
    for (net::NodeId v : eligible) {
      if (v != sender && ctx_.tracker.delivered(id, v)) {
        certified = true;
        break;
      }
    }
    if (!certified) continue;
    for (net::NodeId v : eligible) {
      if (v == sender || ctx_.tracker.delivered(id, v)) continue;
      std::ostringstream detail;
      detail << "certified tx " << id << " never reached eligible honest node "
             << v << " despite self-healing";
      add_failure(out, before, "recovery-liveness", detail.str());
    }
  }
}

void InvariantSuite::check_epoch_transition_safety(
    std::vector<Failure>& out) const {
  if (!scenario_.hermes()) return;
  const std::size_t before = out.size();
  for (const CertifiedSend& rec : certified_sends_) {
    // Tree traffic only: the gossip fallback lawfully re-pushes older
    // certified transactions after the overlay moved on.
    if (rec.msg_type != HermesNode::kMsgData &&
        rec.msg_type != HermesNode::kMsgBatchChunk) {
      continue;
    }
    // Installed epoch at the send's sim time. installs_ is in event order
    // with ascending epochs, so the last install at-or-before the send
    // wins; a send in the same event as an install may still lawfully use
    // the predecessor view.
    std::uint64_t current = 0;
    for (const auto& [at_ms, epoch] : installs_) {
      if (at_ms > rec.when) break;
      current = epoch;
    }
    const std::uint64_t previous = current > 0 ? current - 1 : 0;
    if (rec.epoch != current && rec.epoch != previous) {
      std::ostringstream detail;
      detail << "honest node " << rec.src << " sent item " << rec.item_key
             << " at t=" << rec.when << "ms claiming epoch " << rec.epoch
             << " while the installed view was epoch " << current
             << " (window {" << previous << "," << current << "})";
      add_failure(out, before, "epoch-transition-safety", detail.str());
    }
  }
}

void InvariantSuite::check_transition_connectivity(
    std::vector<Failure>& out) const {
  if (!scenario_.hermes() || !scenario_.self_healing) return;
  const std::size_t before = out.size();
  if (synthetic_transition_cut_) {
    add_failure(out, before, "transition-connectivity",
                "synthetic post-transition routing cut (mutation)");
  }
  // Every honest never-crashed node whose local repairs all succeeded must
  // hold routing views that remain valid f+1-connected trees once its
  // removed set is treated as absent, with every admitted joiner placed.
  // Nodes with recorded repair failures are excluded: a failed local
  // repair already downgrades that node to fallback-only routing by
  // design, which the coverage/recovery checkers account for.
  for (net::NodeId v = 0; v < ctx_.node_count(); ++v) {
    if (!honest(v) || ever_crashed_[v]) continue;
    const auto* hn = dynamic_cast<const HermesNode*>(&ctx_.node(v));
    if (hn == nullptr || hn->repair_failures() > 0) continue;
    const std::vector<net::NodeId> absent(hn->removed_nodes().begin(),
                                          hn->removed_nodes().end());
    for (std::size_t idx = 0; idx < scenario_.k; ++idx) {
      const overlay::Overlay* o = hn->repaired_overlay(idx);
      if (o == nullptr) continue;  // pristine view; overlay-connectivity owns it
      for (const std::string& violation :
           overlay::validate_with_absent(*o, absent)) {
        std::ostringstream detail;
        detail << "node " << v << " routing view for overlay " << idx
               << " broken after transition: " << violation;
        add_failure(out, before, "transition-connectivity", detail.str());
      }
      for (net::NodeId joiner : hn->rejoined_nodes()) {
        if (joiner < o->node_count() && o->depth(joiner) == 0) {
          std::ostringstream detail;
          detail << "node " << v << " admitted joiner " << joiner
                 << " but left it unplaced in overlay " << idx;
          add_failure(out, before, "transition-connectivity", detail.str());
        }
      }
    }
  }
}

void InvariantSuite::check_mempool_pressure(std::vector<Failure>& out) const {
  const std::size_t before = out.size();
  if (synthetic_phantom_eviction_) {
    add_failure(out, before, "mempool-pressure",
                "eviction log records incoming tx 2 (fee 5) displacing tx 1 "
                "(fee 100): incoming does not outrank evicted (mutation)");
  }
  // The (fee, id) priority order the mempool admits/evicts by.
  const auto outranks = [](std::uint64_t fee_a, std::uint64_t id_a,
                           std::uint64_t fee_b, std::uint64_t id_b) {
    if (fee_a != fee_b) return fee_a > fee_b;
    return id_a > id_b;
  };
  for (net::NodeId v = 0; v < ctx_.node_count(); ++v) {
    if (!honest(v)) continue;
    const mempool::Mempool& pool = ctx_.node(v).pool();
    // Capacity bound: the resident set never exceeds the configured cap.
    if (pool.capacity() > 0 && pool.size() > pool.capacity()) {
      std::ostringstream detail;
      detail << "node " << v << " holds " << pool.size()
             << " resident txs over capacity " << pool.capacity();
      add_failure(out, before, "mempool-pressure", detail.str());
    }
    // Conservation: every admitted tx is still resident or was evicted —
    // nothing vanishes silently.
    if (pool.admitted_total() != pool.size() + pool.evicted_total()) {
      std::ostringstream detail;
      detail << "node " << v << " admission accounting broken: admitted "
             << pool.admitted_total() << " != resident " << pool.size()
             << " + evicted " << pool.evicted_total();
      add_failure(out, before, "mempool-pressure", detail.str());
    }
    // Eviction log: every record is fee-lawful and final.
    for (const mempool::Eviction& ev : pool.eviction_log()) {
      if (!outranks(ev.incoming_fee, ev.incoming_id, ev.evicted_fee,
                    ev.evicted_id)) {
        std::ostringstream detail;
        detail << "node " << v << " evicted tx " << ev.evicted_id << " (fee "
               << ev.evicted_fee << ") for incoming tx " << ev.incoming_id
               << " (fee " << ev.incoming_fee
               << ") which does not outrank it";
        add_failure(out, before, "mempool-pressure", detail.str());
      }
      if (pool.contains(ev.evicted_id)) {
        std::ostringstream detail;
        detail << "node " << v << " resurrected evicted tx " << ev.evicted_id
               << " into the resident set";
        add_failure(out, before, "mempool-pressure", detail.str());
      }
    }
    // The sustained-load stream of each origin arrives at that origin in
    // sequence order — the driver submits it in seq order, so an inversion
    // means cross-tx interleaving inside the submission path. (A repeated
    // id is no-duplicate-delivery's.)
    std::uint64_t last_own_load_seq = 0;
    for (const mempool::Mempool::Entry& entry : pool.arrival_log()) {
      const std::uint64_t id = entry.id();
      if (static_cast<net::NodeId>(id >> 32) == v &&
          load_injected_.count(id) > 0) {
        const std::uint64_t seq = id & 0xffffffffULL;
        if (seq <= last_own_load_seq) {
          std::ostringstream detail;
          detail << "origin " << v << " arrival log interleaves its load "
                 << "stream: seq " << seq << " after seq "
                 << last_own_load_seq;
          add_failure(out, before, "mempool-pressure", detail.str());
        }
        last_own_load_seq = seq;
      }
    }
  }
}

std::vector<Failure> InvariantSuite::finish() {
  for (net::NodeId v = 0; v < ctx_.node_count(); ++v) {
    if (!honest(v)) continue;
    for (const mempool::Mempool::Entry& entry :
         ctx_.node(v).pool().arrival_log()) {
      honest_delivered_.insert(entry.id());
    }
  }
  std::vector<Failure> out;
  check_duplicates(out);
  check_sequences(out);
  check_overlay_consistency(out);
  check_accusations(out);
  check_fallback(out);
  check_connectivity(out);
  check_coverage(out);
  check_repair_convergence(out);
  check_recovery_liveness(out);
  check_epoch_transition_safety(out);
  check_transition_connectivity(out);
  check_mempool_pressure(out);
  return out;
}

}  // namespace hermes::fuzz
