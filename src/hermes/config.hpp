// HERMES protocol configuration (Sections IV and VI).
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "overlay/builder.hpp"

namespace hermes::hermes_proto {

struct HermesConfig {
  std::size_t f = 1;  // local fault tolerance; f+1 entry points per overlay
  std::size_t k = 10; // number of overlays

  // Committee running TRS generation: 3f+1 members, 2f+1 threshold. The
  // member ids are fixed at setup (the paper's permissioned bootstrap);
  // benches cap the number of Byzantine committee members at f, matching
  // the system model's assumption that no quorum of the committee is
  // faulty.
  std::vector<net::NodeId> committee;

  // Gossip fallback (Section VII-A): delay T before background gossip
  // repairs holes.
  double fallback_delay_ms = 400.0;
  bool enable_fallback = true;

  // Threshold-crypto backend. The default HMAC simulation scheme keeps
  // large runs fast; enabling this generates a real Shoup threshold-RSA
  // key (safe primes) and runs the TRS with genuine partial signatures and
  // Fiat-Shamir proofs end to end. Key generation takes seconds.
  bool use_real_threshold_crypto = false;
  std::size_t real_threshold_rsa_bits = 256;

  // Acknowledgment of delivery (Section IV step 3, optional): receivers
  // acknowledge back through the overlay they received on — each node
  // aggregates its subtree's count for a short window, then reports to
  // its lowest-latency predecessor; entry points report to the origin.
  bool enable_acks = false;

  // When set, front-running adversaries additionally blast their
  // transaction directly to random nodes without a certificate — the naive
  // attack HERMES's verification rejects and audits (Section VI-C). A
  // rational adversary does not do this (the blast is rejected AND gets it
  // excluded), so the default models the rational attacker: its only lane
  // is the protocol itself.
  bool adversary_blind_blast = false;

  // Entry-point injection. The paper sends m "through f+1 disjoint paths,
  // unless of course the sender is connected directly to the overlay's
  // entry points" (Section IV). In a P2P deployment any node can dial any
  // other, so the default injects directly (one hop per entry point); set
  // false to relay hop-by-hop over f+1 vertex-disjoint physical paths,
  // which tolerates Byzantine relays at a latency cost.
  bool direct_entry_injection = true;

  // --- Self-healing (detect -> repair -> recover, Sections VI-C/VII) ---
  // Master switch. Off by default: every knob below is inert and the
  // protocol's message trace is bit-identical to the pre-self-healing
  // implementation. It also admits joiners: a recovered node calls
  // begin_join() to broadcast a signed JoinRequest; peers witness it (f+1
  // distinct signed witnesses admit the joiner everywhere, composing with
  // the signed departure reports) and send the joiner a state catch-up
  // (current epoch + per-origin sequence digests) so it rejoins
  // dissemination without violating the invariant suite. No node sends a
  // join message unless begin_join() runs.
  bool enable_self_healing = false;

  // HealthMonitor cadence: each node samples its own health every
  // health_tick_ms and acts on what it sees (gap pulls, silence strikes,
  // view-change votes).
  double health_tick_ms = 200.0;

  // View change: committee members vote to advance the epoch when the
  // cumulative degradation score (departed + excluded nodes, failed local
  // repairs weighted double) reaches view_change_threshold; the vote
  // clears only after degradation falls below HermesNode::kViewChangeClear
  // (hysteresis), and two automatic epoch advances are separated by at
  // least view_change_cooldown_ms (anti-flapping).
  double view_change_threshold = 3.0;
  double view_change_cooldown_ms = 5000.0;

  // --- Epoch pipeline (permissionless churn) ---
  // Master switch, off by default, with the same bit-identical promise.
  // Membership changes (admitted joins, departures) feed a bounded delta
  // queue; small deltas are absorbed incrementally (local repair +
  // incremental join placement), and once the queue reaches
  // EpochPipeline::kHysteresis a warm-started re-anneal of epoch e+1 runs
  // in the background (modeled as EpochPipeline::kAnnealMs of sim time on
  // the builder thread pool) while epoch e keeps serving traffic. If
  // further churn lands mid-anneal the pipelined epoch is invalidated and
  // retried with exponential backoff (EpochPipeline's constants). Requires
  // enable_self_healing.
  bool enable_epoch_pipeline = false;

  // Overlay construction knobs (offline phase).
  overlay::BuilderParams builder;

  std::size_t committee_size() const { return 3 * f + 1; }
  std::size_t trs_threshold() const { return 2 * f + 1; }
};

}  // namespace hermes::hermes_proto
