#include "hermes/hermes_node.hpp"

#include <algorithm>

#include "net/connectivity.hpp"
#include "overlay/join.hpp"
#include "overlay/repair.hpp"
#include "support/assert.hpp"

namespace hermes::hermes_proto {

namespace {
constexpr std::size_t kTrsTupleWire = 44 + crypto::kSha256DigestSize;
// Fallback offer rounds per tx id, each to a fresh neighbor sample.
constexpr int kFallbackRounds = 3;
// Fallback ticks per delay T: the tick period is T/4.
constexpr std::uint64_t kFallbackTicksPerDelay = 4;
// The origin re-sends its TRS request this often until the certificate
// forms (Section IV step 1).
constexpr double kTrsRetryMs = 400.0;
// Each node aggregates its subtree's delivery acks this long before
// reporting upward.
constexpr double kAckAggregateMs = 50.0;
// A predecessor silent across this many consecutive health ticks, while a
// sibling predecessor kept feeding this node, earns a departure report.
constexpr std::size_t kSilenceStrikes = 3;
// Weight of a failed local repair in the degradation score: the overlay is
// degraded beyond local fixes, which weighs more than an absorbed
// departure.
constexpr double kFailedRepairWeight = 2.0;

// Wire size of a fallback offer or request listing `ids` tx ids.
std::size_t id_list_wire(std::size_t ids) { return 8 + 8 * ids; }
// Wire size of a transaction's certified tuple.
std::size_t data_wire(const DataBody& d) {
  return d.tx.payload_bytes + d.certificate.size() + 48;
}
}  // namespace

bool HermesShared::is_committee_member(net::NodeId v) const {
  return committee_index(v) != 0;
}

std::size_t HermesShared::committee_index(net::NodeId v) const {
  for (std::size_t i = 0; i < committee.size(); ++i) {
    if (committee[i] == v) return i + 1;
  }
  return 0;
}

std::vector<net::NodeId> pick_committee(const ExperimentContext& ctx,
                                        std::size_t f, Rng& rng) {
  const std::size_t size = 3 * f + 1;
  std::vector<net::NodeId> honest, other;
  for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
    (ctx.is_honest(v) ? honest : other).push_back(v);
  }
  rng.shuffle(honest);
  rng.shuffle(other);
  HERMES_REQUIRE(honest.size() >= 2 * f + 1 &&
                 "committee needs an honest quorum");
  std::vector<net::NodeId> committee;
  // Up to f compromised members (the model's bound), the rest honest.
  for (std::size_t i = 0; i < other.size() && committee.size() < f; ++i) {
    committee.push_back(other[i]);
  }
  for (std::size_t i = 0; i < honest.size() && committee.size() < size; ++i) {
    committee.push_back(honest[i]);
  }
  HERMES_REQUIRE(committee.size() == size);
  rng.shuffle(committee);
  return committee;
}

// ---------------------------------------------------------------------------
// HermesNode

HermesNode::HermesNode(ExperimentContext& ctx, net::NodeId id,
                       std::shared_ptr<const HermesShared> shared)
    : ProtocolNode(ctx, id),
      shared_(std::move(shared)),
      rng_(ctx.rng.fork(0x8e77ULL * (id + 1))),
      collector_(*shared_->scheme) {
  const std::size_t idx = shared_->committee_index(id);
  if (idx != 0) {
    committee_state_ =
        std::make_unique<TrsCommitteeMember>(shared_->config.f, idx);
  }
}

void HermesNode::submit(const Transaction& tx) {
  deliver_own(tx);
  request_trs(tx);
}

void HermesNode::fast_submit(const Transaction& tx) {
  // No privileged lane exists: go through the committee like everyone else.
  deliver_own(tx);
  request_trs(tx);
  if (!shared_->config.adversary_blind_blast) return;
  // Naive-adversary mode: blast without a certificate — honest receivers
  // reject it, log the violation, and gossip signed reports that exclude
  // the attacker network-wide (killing even its legitimate traffic).
  auto body = std::make_shared<DataBody>();
  body->tx = tx;
  body->trs = TrsId{id(), tx.sender_seq, tx.hash()};
  body->overlay_index = 0;  // no certificate, no verifiable choice
  body->epoch = shared_->epoch;
  const std::size_t blast = std::min<std::size_t>(8, ctx_.node_count() - 1);
  for (std::size_t i = 0; i < blast; ++i) {
    const net::NodeId dst =
        static_cast<net::NodeId>(rng_.uniform_u64(ctx_.node_count()));
    if (dst != id()) send_to(dst, kMsgData, data_wire(*body), body);
  }
}

void HermesNode::request_trs(const Transaction& tx) {
  TrsId trs{id(), tx.sender_seq, tx.hash()};
  pending_.emplace(trs.key(), tx);
  send_trs_request(trs, /*attempt=*/0);
}

void HermesNode::send_trs_request(const TrsId& trs, int attempt) {
  if (pending_.count(trs.key()) == 0 &&
      pending_batches_.count(trs.key()) == 0) {
    return;  // certificate already formed
  }
  if (attempt >= kTrsRetryMaxAttempts) {
    // Give up for real: drop the pending entry (a leaked entry would let a
    // stray late partial complete a round the sender already wrote off,
    // and would pin the payload forever) and surface the failure.
    pending_.erase(trs.key());
    pending_batches_.erase(trs.key());
    monitor_.note_trs_give_up();
    return;
  }
  auto body = std::make_shared<TrsRequestBody>();
  body->trs = trs;
  for (net::NodeId member : shared_->committee) {
    if (member == id()) continue;
    send_to(member, kMsgTrsRequest, kTrsTupleWire, body);
    ++trs_requests_;
  }
  // A sender that is itself a committee member processes its own request.
  if (committee_state_ && attempt == 0) {
    on_trs_request(sim::Message{id(), id(), kMsgTrsRequest, 0, body});
  }
  // Message loss is not retried by the network; the sender re-requests
  // until the certificate forms. Committee members answer duplicates of
  // already-delivered tuples with a fresh partial, so one surviving
  // retransmission completes the round.
  ctx_.engine.schedule(kTrsRetryMs, [this, trs, attempt] {
    send_trs_request(trs, attempt + 1);
  });
}

void HermesNode::submit_batch(std::vector<Transaction> txs) {
  HERMES_REQUIRE(!txs.empty());
  // The origin's own record of every member, kept until dissemination.
  const auto own =
      std::make_shared<const std::vector<Transaction>>(std::move(txs));
  for (const Transaction& tx : *own) deliver_tx(own, tx);
  const std::uint64_t seq = allocate_seq();
  TrsId trs{id(), seq, mempool::batch_hash(*own)};
  pending_batches_.emplace(trs.key(), own);
  send_trs_request(trs, /*attempt=*/0);
}

void HermesNode::disseminate_batch(const std::vector<Transaction>& txs,
                                   const TrsId& trs, const Bytes& certificate,
                                   std::size_t base_overlay) {
  // Same latency accounting as single transactions: propagation of the
  // batch payload starts now; the TRS round carried only its hash.
  for (const Transaction& tx : txs) {
    trs_wait_ms_.add(now() - tx.created_at);
    ctx_.tracker.restamp_created(tx.id, now());
  }
  const std::size_t k = shared_->config.k;
  const std::size_t data_shards = kBatchDataChunks;
  const std::size_t parity_shards = shared_->config.f;
  const crypto::ErasureCode code(data_shards, parity_shards);
  const Bytes payload = mempool::serialize_batch(txs);
  const auto shards = code.encode(payload);

  // Charge the wire for the real batch bytes spread over the shards: the
  // serialized metadata stands in for payloads, so scale shard sizes to
  // the declared batch wire size.
  const std::size_t batch_bytes = mempool::batch_wire_size(txs);
  const std::size_t shard_wire = batch_bytes / data_shards + 64;

  // The sender holds every shard, under the certificate it built.
  BatchAssembly& assembly = batches_[trs.key()];
  assembly.certificate = certificate;
  for (const auto& shard : shards) {
    const std::size_t overlay_index = (base_overlay + shard.index) % k;
    // One immutable body per shard, shared by every copy of it.
    auto chunk = std::make_shared<BatchChunkBody>();
    chunk->trs = trs;
    chunk->certificate = certificate;
    chunk->base_overlay = static_cast<std::uint32_t>(base_overlay);
    chunk->data_shards = static_cast<std::uint32_t>(data_shards);
    chunk->total_shards = static_cast<std::uint32_t>(shards.size());
    chunk->shard_wire_bytes = static_cast<std::uint32_t>(shard_wire);
    chunk->epoch = shared_->epoch;
    chunk->shard = shard;
    absorb_chunk(assembly, *chunk);
    const overlay::Overlay& ov = routing_overlay(*shared_, overlay_index);
    for (net::NodeId entry : ov.entry_points()) {
      if (entry == id()) {
        forward_chunk(assembly, chunk);
        continue;
      }
      send_to(entry, kMsgBatchChunk, shard_wire + certificate.size(), chunk);
    }
  }
}

void HermesNode::forward_chunk(
    BatchAssembly& assembly,
    const std::shared_ptr<const BatchChunkBody>& chunk) {
  auto& sent = assembly.forwarded;
  if (std::find(sent.begin(), sent.end(), chunk->shard.index) != sent.end()) {
    return;
  }
  sent.push_back(chunk->shard.index);
  const HermesShared* shared = shared_for_epoch(chunk->epoch);
  if (shared == nullptr) return;  // stale generation
  const std::size_t overlay_index =
      (chunk->base_overlay + chunk->shard.index) % shared->config.k;
  const overlay::Overlay& ov = routing_overlay(*shared, overlay_index);
  for (net::NodeId succ : ov.successors(id())) {
    send_to(succ, kMsgBatchChunk,
            chunk->shard_wire_bytes + chunk->certificate.size(), chunk);
  }
}

void HermesNode::absorb_chunk(BatchAssembly& assembly,
                              const BatchChunkBody& chunk) {
  if (assembly.decoded) return;
  assembly.data_shards = chunk.data_shards;
  for (const auto& existing : assembly.shards) {
    if (existing.index == chunk.shard.index) return;
  }
  assembly.shards.push_back(chunk.shard);
  if (assembly.shards.size() < assembly.data_shards) return;

  const crypto::ErasureCode code(chunk.data_shards,
                                 chunk.total_shards - chunk.data_shards);
  const auto payload = code.decode(assembly.shards);
  if (!payload) return;
  auto txs = mempool::deserialize_batch(*payload);
  if (!txs) return;
  if (mempool::batch_hash(*txs) != chunk.trs.tx_hash) {
    // Some shard is not the certified batch's; which one is unknown, so
    // start over and let later copies rebuild it.
    assembly.shards.clear();
    return;
  }
  assembly.decoded = true;
  assembly.shards.clear();
  ++batches_decoded_;
  // Every member's entry shares the decoded vector.
  const auto decoded =
      std::make_shared<const std::vector<Transaction>>(std::move(*txs));
  for (const Transaction& tx : *decoded) deliver_tx(decoded, tx);
  // The batch consumed one sequence number of its origin: close it, or
  // gap detection would chase a hole that is not a missing transaction.
  if (healing_enabled()) {
    monitor_.note_delivered(chunk.trs.origin, chunk.trs.seq);
  }
}

void HermesNode::on_batch_chunk(const sim::Message& msg) {
  const auto& chunk = msg.as<BatchChunkBody>();
  if (excluded(msg.src)) return;
  const HermesShared* shared = shared_for_epoch(chunk.epoch);
  if (shared == nullptr) return;  // stale generation
  // Counts the erasure code cannot take, and an index outside them, are
  // as malformed as a shard on the wrong overlay.
  if (chunk.data_shards == 0 || chunk.total_shards < chunk.data_shards ||
      chunk.total_shards > crypto::ErasureCode::kMaxShards ||
      chunk.shard.index >= chunk.total_shards) {
    record_violation(ViolationKind::kWrongOverlay, msg.src, 0);
    return;
  }
  const std::size_t overlay_index =
      (chunk.base_overlay + chunk.shard.index) % shared->config.k;
  // The assembly holds the certificate of the batch's first admitted shard
  // (the key binds the TRS), so only a shard carrying another one is
  // verified.
  const std::string key = chunk.trs.key();
  const auto held = batches_.find(key);
  const bool verified =
      held != batches_.end() && held->second.certificate == chunk.certificate;
  if (!admissible(msg.src, *shared, chunk.trs, chunk.certificate, verified,
                  chunk.base_overlay, overlay_index, 0)) {
    return;
  }
  const auto [it, created] = batches_.try_emplace(key);
  BatchAssembly& assembly = it->second;
  if (created) assembly.certificate = chunk.certificate;
  absorb_chunk(assembly, chunk);
  if (!relays()) return;
  forward_chunk(assembly,
                std::static_pointer_cast<const BatchChunkBody>(msg.body));
}

void HermesNode::committee_broadcast(std::uint32_t type, const TrsId& trs) {
  auto body = std::make_shared<TrsVoteBody>();
  body->trs = trs;
  for (net::NodeId member : shared_->committee) {
    if (member != id()) send_to(member, type, kTrsTupleWire, body);
  }
}

void HermesNode::on_trs_request(const sim::Message& msg) {
  if (!committee_state_ || !relays()) return;
  const TrsId& trs = msg.as<TrsRequestBody>().trs;
  if (msg.src != trs.origin) return;  // only the origin may open its stream

  switch (committee_state_->check_sequence(trs.origin, trs.seq)) {
    case TrsCommitteeMember::SeqCheck::kDuplicate: {
      // Retransmission of a delivered tuple: resend the partial so a
      // sender whose earlier partials were lost can still combine, and
      // re-broadcast our votes so peers whose Echo/Ready copies were lost
      // can still reach delivery (they owe the sender a partial too).
      BrachaState* state = committee_state_->find_state(trs);
      if (state && state->delivered()) {
        committee_broadcast(kMsgTrsEcho, trs);
        committee_broadcast(kMsgTrsReady, trs);
        send_partial(trs, partial_for(trs));
      }
      return;
    }
    case TrsCommitteeMember::SeqCheck::kFuture:
      // Sequence enforcement (Section VI-C): park until the gap closes; a
      // sender that skipped a number never completes this TRS.
      parked_[trs.origin].emplace(trs.seq, trs);
      return;
    case TrsCommitteeMember::SeqCheck::kInOrder:
      break;
  }
  BrachaState& state = committee_state_->state_for(trs, shared_->config.f);
  if (!echo_request(state, trs) && !state.delivered()) {
    // Retransmitted request while the Bracha instance is stalled (lost
    // Echo/Ready messages): re-broadcast our votes so peers can catch up.
    committee_broadcast(kMsgTrsEcho, trs);
    if (state.readied()) committee_broadcast(kMsgTrsReady, trs);
  }
  maybe_progress(trs);
}

bool HermesNode::echo_request(BrachaState& state, const TrsId& trs) {
  if (!state.on_request()) return false;
  committee_broadcast(kMsgTrsEcho, trs);
  // Count the local echo — and, if it tips the threshold, the local Ready
  // as well (peers count our broadcast; we must count ourselves).
  if (state.on_echo(id())) {
    committee_broadcast(kMsgTrsReady, trs);
    state.on_ready(id());
  }
  return true;
}

void HermesNode::on_trs_vote(const sim::Message& msg, bool is_ready) {
  if (!committee_state_ || !relays()) return;
  if (!shared_->is_committee_member(msg.src)) return;
  const TrsId& trs = msg.as<TrsVoteBody>().trs;
  BrachaState& state = committee_state_->state_for(trs, shared_->config.f);
  const bool send_ready =
      is_ready ? state.on_ready(msg.src) : state.on_echo(msg.src);
  if (send_ready) {
    committee_broadcast(kMsgTrsReady, trs);
    state.on_ready(id());
  }
  maybe_progress(trs);
}

void HermesNode::maybe_progress(const TrsId& trs) {
  BrachaState* state = committee_state_->find_state(trs);
  if (!state || !state->try_deliver()) return;
  committee_state_->mark_delivered(trs.origin, trs.seq);
  crypto::PartialSignature partial = partial_for(trs);
  if (trs.origin != id()) {
    send_partial(trs, std::move(partial));
  } else if (auto combined = collector_.add_partial(trs, partial)) {
    // Local short-circuit for committee members sending their own txs.
    on_certified(trs, *combined);
  }
  replay_parked(trs.origin);
}

crypto::PartialSignature HermesNode::partial_for(const TrsId& trs) const {
  return shared_->scheme->partial_sign(committee_state_->member_index(),
                                       trs.signed_message());
}

void HermesNode::send_partial(const TrsId& trs,
                              crypto::PartialSignature partial) {
  auto body = std::make_shared<TrsPartialBody>();
  body->trs = trs;
  body->partial = std::move(partial);
  const std::size_t wire = kTrsTupleWire + body->partial.bytes.size();
  send_to(trs.origin, kMsgTrsPartial, wire, std::move(body));
}

void HermesNode::replay_parked(net::NodeId origin) {
  const auto it = parked_.find(origin);
  if (it == parked_.end()) return;
  auto& queue = it->second;
  while (!queue.empty()) {
    const auto first = queue.begin();
    if (committee_state_->check_sequence(origin, first->first) !=
        TrsCommitteeMember::SeqCheck::kInOrder) {
      break;
    }
    const TrsId trs = first->second;
    queue.erase(first);
    echo_request(committee_state_->state_for(trs, shared_->config.f), trs);
    maybe_progress(trs);
  }
  if (queue.empty()) parked_.erase(it);
}

void HermesNode::on_trs_partial(const sim::Message& msg) {
  const auto& body = msg.as<TrsPartialBody>();
  if (!shared_->is_committee_member(msg.src)) return;
  if (pending_.count(body.trs.key()) == 0 &&
      pending_batches_.count(body.trs.key()) == 0) {
    return;
  }
  if (auto combined = collector_.add_partial(body.trs, body.partial)) {
    on_certified(body.trs, *combined);
  }
}

void HermesNode::on_certified(const TrsId& trs, const Bytes& certificate) {
  const std::size_t overlay_index =
      select_overlay(certificate, shared_->config.k);
  if (const auto it = pending_.find(trs.key()); it != pending_.end()) {
    const Transaction tx = std::move(it->second);
    pending_.erase(it);
    disseminate(tx, trs, certificate, overlay_index);
  } else if (const auto batch = pending_batches_.find(trs.key());
             batch != pending_batches_.end()) {
    const auto txs = std::move(batch->second);
    pending_batches_.erase(batch);
    disseminate_batch(*txs, trs, certificate, overlay_index);
  }
}

const std::vector<std::vector<net::NodeId>>& HermesNode::entry_routes(
    std::size_t idx) {
  const auto cached = route_cache_.find(idx);
  if (cached != route_cache_.end()) return cached->second;

  // Vertex-disjoint paths from this node to the overlay's f+1 entry points
  // (Section IV step 1): super-sink construction over the physical graph.
  const overlay::Overlay& ov = shared_->overlays[idx];
  net::Graph aug = ctx_.topology.graph;
  const net::NodeId sink = aug.add_node();
  for (net::NodeId e : ov.entry_points()) {
    aug.add_edge(e, sink, 0.0);
  }
  auto paths = net::vertex_disjoint_paths(aug, id(), sink,
                                          shared_->config.f + 1);
  for (auto& path : paths) {
    HERMES_REQUIRE(path.back() == sink);
    path.pop_back();
  }
  // If the graph cannot supply f+1 disjoint routes (the fault-density
  // assumption is violated locally), fall back to direct logical links so
  // every entry point is still addressed.
  if (paths.size() < shared_->config.f + 1) {
    std::unordered_set<net::NodeId> covered;
    for (const auto& p : paths) covered.insert(p.back());
    for (net::NodeId e : ov.entry_points()) {
      if (!covered.count(e)) paths.push_back({id(), e});
    }
  }
  return route_cache_.emplace(idx, std::move(paths)).first->second;
}

void HermesNode::disseminate(const Transaction& tx, const TrsId& trs,
                             const Bytes& certificate,
                             std::size_t overlay_index) {
  // Propagation of m starts now; the TRS round before it carried only
  // H(m). Latency figures measure the propagation of m (Section VIII-C),
  // so the tracker's origin timestamp moves here, and the TRS wait is
  // accounted separately.
  trs_wait_ms_.add(now() - tx.created_at);
  ctx_.tracker.restamp_created(tx.id, now());
  // The one body of this transaction: every node forwards and keeps it.
  auto built = std::make_shared<DataBody>();
  built->tx = tx;
  built->trs = trs;
  built->certificate = certificate;
  built->overlay_index = static_cast<std::uint32_t>(overlay_index);
  built->epoch = shared_->epoch;
  const std::shared_ptr<const DataBody> body = std::move(built);
  remember(body);
  const std::size_t wire = data_wire(*body);
  if (shared_->config.direct_entry_injection) {
    const overlay::Overlay& ov = routing_overlay(*shared_, overlay_index);
    for (net::NodeId entry : ov.entry_points()) {
      if (entry == id()) {
        accept_and_forward(*shared_, body);
        continue;
      }
      send_to(entry, kMsgData, wire, body);
    }
    return;
  }
  for (const auto& path : entry_routes(overlay_index)) {
    HERMES_REQUIRE(!path.empty() && path.front() == id());
    if (path.size() == 1) {
      // This node is itself an entry point of the selected overlay.
      accept_and_forward(*shared_, body);
      continue;
    }
    auto routed = std::make_shared<DataBody>(*body);
    routed->route.assign(path.begin() + 2, path.end());
    send_to(path[1], kMsgData, wire, std::move(routed));
  }
}

void HermesNode::on_data(const sim::Message& msg) {
  const auto& d = msg.as<DataBody>();
  if (excluded(msg.src)) return;
  const HermesShared* shared = shared_for_epoch(d.epoch);
  if (shared == nullptr) return;  // stale generation: drop, not malice

  if (!d.route.empty()) {
    // Relay duty on a disjoint injection path: the body is shared, so pop
    // the hop on a clone. A next hop that is this node or no node at all
    // is malformed.
    if (!relays()) return;
    const net::NodeId next = d.route.front();
    if (next == id() || next >= ctx_.node_count()) return;
    auto body = std::make_shared<DataBody>(d);
    body->route.erase(body->route.begin());
    send_to(next, kMsgData, data_wire(d), std::move(body));
    return;
  }
  if (!bound_to_trs(msg.src, d) ||
      !admissible(msg.src, *shared, d.trs, d.certificate, verified_copy(d),
                  d.overlay_index, d.overlay_index, d.tx.id)) {
    return;
  }
  accept_and_forward(*shared,
                     std::static_pointer_cast<const DataBody>(msg.body));
}

bool HermesNode::bound_to_trs(net::NodeId src, const DataBody& d) {
  // Once forwarded, accept_and_forward ignores the body, so only the
  // first receipts pay for the hash.
  const mempool::Mempool::Entry* entry = pool_.find(d.tx.id);
  if (entry != nullptr && entry->forwarded()) return true;
  if (d.trs.origin == d.tx.sender && d.trs.seq == d.tx.sender_seq &&
      d.trs.tx_hash == d.tx.hash()) {
    return true;
  }
  record_violation(ViolationKind::kBadCertificate, src, d.tx.id);
  return false;
}

bool HermesNode::verified_copy(const DataBody& d) const {
  // Every generation shares one threshold scheme (clone_shared_for_next_
  // epoch copies the pointer), so a verdict holds whatever the epoch.
  const DataBody* held = find_held(d.tx.id);
  return held != nullptr && held->trs == d.trs &&
         held->certificate == d.certificate;
}

bool HermesNode::admissible(net::NodeId src, const HermesShared& shared,
                            const TrsId& trs, const Bytes& certificate,
                            bool verified, std::size_t seed_overlay,
                            std::size_t overlay_index, std::uint64_t tx_id) {
  if (seed_overlay >= shared.config.k) {
    record_violation(ViolationKind::kWrongOverlay, src, tx_id);
    return false;
  }
  if (!verified &&
      !shared.scheme->verify_combined(trs.signed_message(), certificate)) {
    record_violation(ViolationKind::kBadCertificate, src, tx_id);
    return false;
  }
  if (select_overlay(certificate, shared.config.k) != seed_overlay) {
    record_violation(ViolationKind::kWrongOverlay, src, tx_id);
    return false;
  }
  const overlay::Overlay& ov = shared.overlays[overlay_index];
  bool legitimate = ov.is_entry(id()) || ov.has_link(src, id());
  if (!legitimate && healing_enabled()) {
    // During repair convergence the sender may already route on its
    // repaired tree while this node has not applied (or not yet learned
    // of) the same removals — and a message sent on a repaired tree can
    // even arrive after a view change, resolving to the previous
    // generation here. Accept anything consistent with a repaired view
    // without logging a violation: transient disagreement is churn, not
    // malice. Equal depth must pass because repair promotes a depth-2
    // node to the entry layer, where it feeds its former depth-2
    // siblings; the origin must pass because it injects directly to
    // promoted entries. This trades some off-tree policing for zero false
    // accusations — certified transactions are already front-run-proof.
    if (&shared == shared_.get()) {
      const overlay::Overlay& route = routing_overlay(shared, overlay_index);
      legitimate = route.is_entry(id()) || route.has_link(src, id());
    }
    legitimate = legitimate || src == trs.origin ||
                 (ov.depth(src) != 0 && ov.depth(id()) != 0 &&
                  ov.depth(src) <= ov.depth(id()));
  }
  if (!legitimate) {
    record_violation(ViolationKind::kIllegitimatePredecessor, src, tx_id);
    return false;
  }
  if (healing_enabled()) overlay_recv_[overlay_index][src] = now();
  return true;
}

void HermesNode::remember(const std::shared_ptr<const DataBody>& body) {
  // The transaction was delivered here first, from this body, from the
  // origin's own record or from a decoded batch: bind() requires its entry.
  if (pool_.bind(body->tx.id, body) && shared_->config.enable_fallback) {
    schedule_fallback(body->tx.id);
  }
}

const DataBody* HermesNode::find_held(std::uint64_t tx_id) const {
  const mempool::Mempool::Entry* entry = pool_.find(tx_id);
  return entry != nullptr && entry->bound()
             ? static_cast<const DataBody*>(entry->record().get())
             : nullptr;
}

void HermesNode::accept_and_forward(
    const HermesShared& shared, const std::shared_ptr<const DataBody>& body) {
  const Transaction& tx = body->tx;
  deliver_tx(body, tx);
  // Forward exactly once per transaction. Delivery and forwarding are
  // deduplicated separately: a sender that is itself an entry point has
  // already delivered its own transaction but must still forward it.
  remember(body);
  if (!pool_.mark_forwarded(tx.id)) return;
  // Sequence-continuity bookkeeping per origin (reordering across overlays
  // is legitimate; persistent holes are repaired by the fallback).
  if (healing_enabled()) {
    monitor_.note_delivered(body->trs.origin, body->trs.seq);
  }

  if (shared.config.enable_acks) {
    start_ack_aggregation(tx.id, body->overlay_index);
  }
  if (!relays_tx(tx)) return;  // droppers / front-run censorship end here
  // Every successor receives the body this node received: it is immutable
  // (receivers that mutate — the route relay — clone first).
  const overlay::Overlay& ov = routing_overlay(shared, body->overlay_index);
  const std::size_t wire = data_wire(*body);
  for (net::NodeId succ : ov.successors(id())) {
    send_to(succ, kMsgData, wire, body);
  }
}

void HermesNode::schedule_fallback(std::uint64_t tx_id) {
  // After delay T (Section VII-A) the id is offered to a few random
  // physical neighbors, and nodes with a hole pull the full payload. A few
  // rounds with fresh neighbor samples make the repair epidemic robust to
  // lost offers and Byzantine neighbors. Offers are batched: the id rides
  // the first tick at or after now + T, each later round rides the tick T
  // after the previous one, and ticks are counted in whole periods T/4.
  if (!relays()) return;
  if (fallback_due_.empty()) {
    // Arming starts a fresh tick grid at now, so it counts as a tick.
    ++fallback_tick_;
    fallback_tick_ms_ = now();
    ctx_.engine.schedule(
        shared_->config.fallback_delay_ms / kFallbackTicksPerDelay,
        [this] { fallback_tick(); });
  }
  // Strictly between two ticks, now + T falls just past the tick T after
  // the last one.
  const std::uint64_t due = fallback_tick_ + kFallbackTicksPerDelay +
                            (now() > fallback_tick_ms_ ? 1 : 0);
  fallback_due_.push_back(FallbackDue{due, tx_id, 0});
}

void HermesNode::fallback_tick() {
  ++fallback_tick_;
  fallback_tick_ms_ = now();
  auto body = std::make_shared<FallbackOfferBody>();
  while (!fallback_due_.empty() &&
         fallback_due_.front().tick <= fallback_tick_) {
    const FallbackDue due = fallback_due_.front();
    fallback_due_.pop_front();
    // A pull for a payload this node no longer holds (fee-evicted) could
    // not be served.
    if (!pool_.contains(due.tx_id)) continue;
    body->tx_ids.push_back(due.tx_id);
    if (due.round + 1 < kFallbackRounds) {
      fallback_due_.push_back(FallbackDue{
          fallback_tick_ + kFallbackTicksPerDelay, due.tx_id, due.round + 1});
    }
  }
  if (!body->tx_ids.empty()) {
    const std::size_t ids = body->tx_ids.size();
    fallback_pushes_ += ids * send_to_sample(rng_, kFallbackFanout, id(),
                                             kMsgFallbackOffer,
                                             id_list_wire(ids), body);
  }
  if (fallback_due_.empty()) return;
  ctx_.engine.schedule(
      shared_->config.fallback_delay_ms / kFallbackTicksPerDelay,
      [this] { fallback_tick(); });
}

void HermesNode::on_fallback_offer(const sim::Message& msg) {
  auto body = std::make_shared<FallbackRequestBody>();
  for (std::uint64_t tx_id : msg.as<FallbackOfferBody>().tx_ids) {
    // seen(), not contains(): a fee-evicted body must not be re-pulled.
    if (!pool_.seen(tx_id)) body->tx_ids.push_back(tx_id);
  }
  if (body->tx_ids.empty()) return;
  const std::size_t wire = id_list_wire(body->tx_ids.size());
  send_to(msg.src, kMsgFallbackRequest, wire, std::move(body));
}

void HermesNode::on_fallback_request(const sim::Message& msg) {
  if (!relays()) return;
  for (std::uint64_t tx_id : msg.as<FallbackRequestBody>().tx_ids) {
    // A payload this node no longer holds (fee-evicted) is not served.
    const mempool::Mempool::Entry* entry = pool_.find(tx_id);
    if (entry == nullptr || !entry->bound() ||
        entry->state() != mempool::Mempool::Admission::kResident) {
      continue;
    }
    auto held = std::static_pointer_cast<const DataBody>(entry->record());
    const std::size_t wire = data_wire(*held);
    send_to(msg.src, kMsgFallback, wire, std::move(held));
  }
}

void HermesNode::on_fallback(const sim::Message& msg) {
  const auto& d = msg.as<DataBody>();
  if (excluded(msg.src)) return;
  // A pulled body is the one its holder forwarded, never a routed one.
  if (!d.route.empty()) return;
  const HermesShared* shared = shared_for_epoch(d.epoch);
  if (shared == nullptr) return;  // stale generation
  if (!bound_to_trs(msg.src, d)) return;
  if (!verified_copy(d) &&
      !shared->scheme->verify_combined(d.trs.signed_message(), d.certificate)) {
    record_violation(ViolationKind::kBadCertificate, msg.src, d.tx.id);
    return;
  }
  // Fallback rides gossip: no predecessor requirement, but the certificate
  // requirement keeps unauthorized transactions out.
  if (healing_enabled() && !pool_.seen(d.tx.id)) {
    // The assigned overlay under-delivered: this copy had to come in
    // through the repair path.
    monitor_.note_overlay_shortfall(d.overlay_index);
  }
  accept_and_forward(*shared,
                     std::static_pointer_cast<const DataBody>(msg.body));
}

const HermesShared* HermesNode::shared_for_epoch(std::uint64_t epoch) const {
  if (epoch == shared_->epoch) return shared_.get();
  if (prev_shared_ && epoch == prev_shared_->epoch) return prev_shared_.get();
  return nullptr;
}

void HermesNode::install_shared(std::shared_ptr<const HermesShared> next) {
  HERMES_REQUIRE(next && next->epoch > shared_->epoch);
  prev_shared_ = shared_;
  shared_ = std::move(next);
  route_cache_.clear();  // entry points moved; recompute on demand
  if (!healing_enabled()) return;
  // New generation: transient health state resets (silence evidence and
  // votes referred to the old trees), the vote machinery re-arms, and the
  // repairs are rebuilt against the fresh overlays — peers known departed
  // stay departed across the view change.
  overlay_recv_.clear();
  silence_count_.clear();
  view_change_votes_.clear();
  view_change_armed_ = true;
  // Departure evidence is generation-scoped (the signed material binds the
  // epoch): the acceptance dedup, per-suspect tallies, and this node's own
  // reported set all re-arm so fresh churn can be re-detected and
  // re-reported against the new trees.
  departures_ = {};
  // Join state is superseded: the new generation's trees place every node
  // afresh (warm rebuilds fold the churn set in; scratch rebuilds place
  // everyone anyway), and pending witness tallies referred to the old
  // epoch's materials. Removals persist — departed peers stay departed.
  rejoined_.clear();
  join_witnesses_ = {};
  monitor_.on_epoch_advanced();
  rebuild_repairs();
}

bool HermesNode::excluded(net::NodeId node) const {
  return audit_.is_excluded(node) || global_excluded_.count(node) > 0;
}

// ---------------------------------------------------------------------------
// Self-healing: detect (HealthMonitor feeds) -> repair (local tree surgery)
// -> recover (gap pulls, digests, health-triggered view changes).

const overlay::Overlay& HermesNode::routing_overlay(const HermesShared& shared,
                                                    std::size_t idx) const {
  // Repairs apply to the current generation only; in-flight traffic of the
  // previous generation keeps routing on its own pristine trees.
  if (healing_enabled() && &shared == shared_.get()) {
    const auto it = repaired_.find(idx);
    if (it != repaired_.end()) return it->second;
  }
  return shared.overlays[idx];
}

const overlay::Overlay* HermesNode::repaired_overlay(std::size_t idx) const {
  const auto it = repaired_.find(idx);
  return it == repaired_.end() ? nullptr : &it->second;
}

void HermesNode::on_start() {
  // Health ticks are a correct-node duty: droppers receive but contribute
  // nothing, so they do not scan, pull, or vote either.
  if (!healing_enabled() || !relays()) return;
  ctx_.engine.schedule(shared_->config.health_tick_ms,
                       [this] { health_tick(); });
}

void HermesNode::health_tick() {
  if (!healing_enabled()) return;
  const double now_ms = now();
  // The monitor keeps its origins ordered, so everything downstream
  // (pulls, digests) emits in ascending-origin order by construction.
  monitor_.tick(now_ms);
  pull_gaps(now_ms);
  send_seq_digest();
  scan_for_silence(now_ms);
  if (committee_state_) {
    const double score =
        monitor_.degradation_score(kFailedRepairWeight, now_ms);
    if (view_change_armed_ && score >= shared_->config.view_change_threshold) {
      view_change_armed_ = false;  // one vote per degradation episode
      cast_view_change_vote();
    } else if (!view_change_armed_ && score < kViewChangeClear) {
      view_change_armed_ = true;  // hysteresis: re-arm only once recovered
    }
  }
  ctx_.engine.schedule(shared_->config.health_tick_ms,
                       [this] { health_tick(); });
}

void HermesNode::pull_gaps(sim::SimTime now_ms) {
  // Gap pulls ride the fallback request path, so they obey its switch.
  if (!shared_->config.enable_fallback) return;
  const auto gaps = monitor_.stale_gaps(now_ms);
  if (gaps.empty()) return;
  if (ctx_.topology.graph.neighbors(id()).empty()) return;
  for (const auto& gap : gaps) {
    auto& last = last_pull_ms_.try_emplace(gap.origin, -1e300).first->second;
    if (now_ms - last < kGapPullAfterMs) continue;
    last = now_ms;
    monitor_.note_gap_pull();
    std::size_t asked = 0;
    for (std::uint64_t seq = gap.next_seq;
         seq <= gap.max_seen && asked < 8; ++seq) {
      const std::uint64_t tx_id = Transaction::make_id(gap.origin, seq);
      if (pool_.seen(tx_id)) continue;
      ++asked;
      auto body = std::make_shared<FallbackRequestBody>();
      body->tx_ids.push_back(tx_id);
      send_to_sample(rng_, kFallbackFanout, id(), kMsgFallbackRequest,
                     id_list_wire(1), body);
    }
  }
}

void HermesNode::send_seq_digest() {
  // Anti-entropy: one random neighbor learns this node's per-origin
  // horizon each tick. This is what lets a node that missed *every* copy
  // of a transaction discover that it exists and open a gap for it.
  // Origins ascend, so the wire bytes never depend on hash order.
  auto horizon = monitor_.horizon();
  if (horizon.empty()) return;
  const auto& nbrs = ctx_.topology.graph.neighbors(id());
  if (nbrs.empty()) return;
  auto body = std::make_shared<SeqDigestBody>();
  body->max_seen = std::move(horizon);
  const std::size_t wire = 8 + 12 * body->max_seen.size();
  const std::size_t pick =
      static_cast<std::size_t>(rng_.uniform_u64(nbrs.size()));
  send_to(nbrs[pick].to, kMsgSeqDigest, wire, std::move(body));
}

void HermesNode::on_seq_digest(const sim::Message& msg) {
  if (!healing_enabled() || excluded(msg.src)) return;
  merge_horizon(msg.as<SeqDigestBody>().max_seen);
}

void HermesNode::merge_horizon(
    const std::vector<std::pair<net::NodeId, std::uint64_t>>& max_seen) {
  for (const auto& [origin, seq] : max_seen) {
    if (origin >= ctx_.node_count()) continue;  // malformed
    monitor_.note_seen(origin, seq);
  }
}

void HermesNode::scan_for_silence(sim::SimTime now_ms) {
  // A predecessor is suspect when, on the same tree and within the recent
  // window, a sibling predecessor fed this node but it did not — comparing
  // siblings controls for there simply being no traffic. std::set keeps
  // the strike/report order reproducible.
  const double window = 2.0 * shared_->config.health_tick_ms;
  std::set<net::NodeId> silent;
  std::set<net::NodeId> active;
  for (std::size_t idx = 0; idx < shared_->overlays.size(); ++idx) {
    const overlay::Overlay& ov = shared_->overlays[idx];
    if (ov.is_entry(id())) continue;
    const auto recv_it = overlay_recv_.find(idx);
    if (recv_it == overlay_recv_.end()) continue;
    double freshest = -1e300;
    for (const auto& [src, at] : recv_it->second) {
      freshest = std::max(freshest, at);
    }
    if (now_ms - freshest > window) continue;  // tree idle: no evidence
    for (net::NodeId pred : ov.predecessors(id())) {
      if (removed_.count(pred)) continue;  // already repaired around
      const auto at = recv_it->second.find(pred);
      const bool heard =
          at != recv_it->second.end() && now_ms - at->second <= window;
      (heard ? active : silent).insert(pred);
    }
  }
  for (net::NodeId pred : active) silent.erase(pred);
  for (auto it = silence_count_.begin(); it != silence_count_.end();) {
    it = silent.count(it->first) ? std::next(it) : silence_count_.erase(it);
  }
  for (net::NodeId suspect : silent) {
    if (++silence_count_[suspect] >= kSilenceStrikes) {
      report_departure(suspect);
    }
  }
}

Bytes HermesNode::departure_material(net::NodeId suspect, net::NodeId reporter,
                                     std::uint64_t epoch) {
  Bytes out = to_bytes("hermes.depart.v2");
  put_u32_be(out, suspect);
  put_u32_be(out, reporter);
  put_u64_be(out, epoch);
  return out;
}

void HermesNode::report_departure(net::NodeId suspect) {
  if (departures_.has(suspect, id())) return;  // reported already
  ++departure_reports_sent_;
  auto report = std::make_shared<DepartureReportBody>();
  report->suspect = suspect;
  report->reporter = id();
  report->epoch = shared_->epoch;
  const Bytes material = departure_material(suspect, id(), report->epoch);
  report->signature = sign(material);
  // Counted even when the material was accepted before: a re-report after
  // admit_join reset the tally.
  departures_.accept(material);
  if (departures_.count(suspect, id()) >= shared_->config.f + 1) {
    mark_removed(suspect);
  }
  gossip(kMsgDepartureReport, 32, std::move(report));
}

void HermesNode::on_departure_report(const sim::Message& msg) {
  if (!healing_enabled()) return;
  const auto& report = msg.as<DepartureReportBody>();
  if (report.suspect == report.reporter || report.suspect == id()) return;
  if (report.epoch != shared_->epoch) return;  // other-generation evidence
  const Bytes material =
      departure_material(report.suspect, report.reporter, report.epoch);
  if (!accept_evidence(departures_, report.suspect, report.reporter, material,
                       report.signature)) {
    return;
  }
  // Only downstream nodes observe silence: the reporter must actually be a
  // successor of the suspect in some current-generation tree, or its
  // report carries no evidence. (The trees are fixed for the material's
  // epoch, so a rejected material stays rejected.)
  const bool downstream = std::any_of(
      shared_->overlays.begin(), shared_->overlays.end(),
      [&report](const overlay::Overlay& ov) {
        return ov.has_link(report.suspect, report.reporter);
      });
  if (!downstream) return;
  // f+1 distinct reporters cannot all be faulty: the suspect is gone.
  if (departures_.count(report.suspect, report.reporter) >=
      shared_->config.f + 1) {
    mark_removed(report.suspect);
  }
  if (relays()) gossip(kMsgDepartureReport, 32, msg.body);
}

void HermesNode::mark_removed(net::NodeId node) {
  if (!healing_enabled() || node == id()) return;
  if (!removed_.insert(node).second) return;
  rejoined_.erase(node);  // a re-departed joiner is simply departed
  // Reset the local witness/tally state so a later rejoin can be
  // re-witnessed — but NOT the accepted witness materials: each witness
  // material is processed once per generation, which keeps the
  // admission/removal gossip from re-accepting in-flight duplicates and
  // chain-reacting (re-admission is an install-next-epoch affair).
  join_witnesses_.signers_by_subject.erase(node);
  monitor_.note_removed();
  rebuild_repairs();
  notify_membership(node, /*join=*/false);
}

void HermesNode::rebuild_repairs() {
  // Canonical repair: start from the pristine certified trees, detach the
  // whole churn set (removed + rejoined) in ascending node-id order
  // (std::set iteration), then re-attach the rejoined nodes, again
  // ascending. The repaired trees are thus a pure function of (pristine
  // generation, removed_, rejoined_) — honest nodes that converge on the
  // same membership view hold byte-identical trees no matter the order
  // they learned the changes in. Rejoined nodes deliberately get a fresh
  // incremental placement rather than their pristine slot: their old
  // position assumed a world before they departed.
  repaired_.clear();
  std::size_t failures = 0;
  if (!removed_.empty() || !rejoined_.empty()) {
    std::set<net::NodeId> churned = removed_;
    churned.insert(rejoined_.begin(), rejoined_.end());
    for (std::size_t idx = 0; idx < shared_->overlays.size(); ++idx) {
      overlay::Overlay repaired = shared_->overlays[idx];
      bool changed = false;
      for (net::NodeId gone : churned) {
        const auto result =
            overlay::remove_node_locally(repaired, gone, ctx_.topology.graph);
        if (result.ok) {
          changed = true;
        } else {
          ++failures;  // structurally beyond local surgery
        }
      }
      for (net::NodeId back : rejoined_) {
        const auto result =
            overlay::attach_node_locally(repaired, back, ctx_.topology.graph);
        if (result.ok) {
          changed = true;
        } else {
          ++failures;
        }
      }
      if (changed) repaired_.emplace(idx, std::move(repaired));
    }
  }
  monitor_.set_failed_repairs(failures);
}

// ---------------------------------------------------------------------------
// Join admission: signed request -> f+1 signed witnesses -> admission,
// composing with the departure-report machinery above (admission undoes a
// removal; a later removal undoes the admission).

Bytes HermesNode::join_material(net::NodeId joiner, std::uint64_t epoch) {
  Bytes out = to_bytes("hermes.join.v1");
  put_u32_be(out, joiner);
  put_u64_be(out, epoch);
  return out;
}

Bytes HermesNode::join_witness_material(net::NodeId joiner, net::NodeId witness,
                                        std::uint64_t epoch) {
  Bytes out = to_bytes("hermes.joinwit.v1");
  put_u32_be(out, joiner);
  put_u32_be(out, witness);
  put_u64_be(out, epoch);
  return out;
}

void HermesNode::begin_join() {
  if (!healing_enabled()) return;
  auto req = std::make_shared<JoinRequestBody>();
  req->joiner = id();
  req->epoch = shared_->epoch;
  req->signature = sign(join_material(id(), req->epoch));
  // The whole physical neighborhood is asked: admission needs f+1 distinct
  // witnesses, and any subset of neighbors may be crashed or faulty.
  for (const auto& edge : ctx_.topology.graph.neighbors(id())) {
    send_to(edge.to, kMsgJoinRequest, 48, req);
  }
}

void HermesNode::on_join_request(const sim::Message& msg) {
  if (!healing_enabled()) return;
  const auto& req = msg.as<JoinRequestBody>();
  if (req.joiner != msg.src || req.joiner == id()) return;
  if (req.epoch != shared_->epoch) return;  // stale view: re-request
  if (excluded(req.joiner)) return;  // accountability bans are not churn
  if (!signed_by(req.joiner, join_material(req.joiner, req.epoch),
                 req.signature)) {
    return;
  }
  witness_join(req.joiner, req.epoch);
  // State catch-up straight back to the joiner: current epoch plus this
  // node's per-origin horizon, so the joiner's gap machinery can pull
  // everything it missed while away.
  auto body = std::make_shared<StateCatchUpBody>();
  body->epoch = shared_->epoch;
  body->max_seen = monitor_.horizon();  // origins ascending
  const std::size_t wire = 16 + 12 * body->max_seen.size();
  send_to(req.joiner, kMsgStateCatchUp, wire, std::move(body));
}

void HermesNode::witness_join(net::NodeId joiner, std::uint64_t epoch) {
  if (join_witnesses_.has(joiner, id())) return;  // one witness each
  auto witness = std::make_shared<JoinWitnessBody>();
  witness->joiner = joiner;
  witness->witness = id();
  witness->epoch = epoch;
  const Bytes material = join_witness_material(joiner, id(), epoch);
  witness->signature = sign(material);
  join_witnesses_.accept(material);
  // f+1 distinct witnesses cannot all be faulty: the joiner really asked.
  if (join_witnesses_.count(joiner, id()) >= shared_->config.f + 1) {
    admit_join(joiner);
  }
  gossip(kMsgJoinWitness, 56, std::move(witness));
}

void HermesNode::on_join_witness(const sim::Message& msg) {
  if (!healing_enabled()) return;
  const auto& witness = msg.as<JoinWitnessBody>();
  if (witness.joiner == witness.witness) return;
  if (witness.epoch != shared_->epoch) return;  // stale generation
  if (excluded(witness.joiner)) return;
  const Bytes material =
      join_witness_material(witness.joiner, witness.witness, witness.epoch);
  if (!accept_evidence(join_witnesses_, witness.joiner, witness.witness,
                       material, witness.signature)) {
    return;
  }
  if (join_witnesses_.count(witness.joiner, witness.witness) >=
      shared_->config.f + 1) {
    admit_join(witness.joiner);
  }
  if (relays()) gossip(kMsgJoinWitness, 56, msg.body);
}

void HermesNode::admit_join(net::NodeId joiner) {
  if (!rejoined_.insert(joiner).second) return;
  removed_.erase(joiner);
  // The joiner starts a fresh churn life: old silence strikes and the
  // accuser tally refer to its previous incarnation. The accepted
  // departure materials deliberately stay — evidence is processed once per
  // generation (see DepartureReportBody), so straggler reports of the old
  // incarnation can neither re-convict nor re-flood; a genuine second
  // departure is re-reported after the next epoch install re-arms the
  // dedup.
  silence_count_.erase(joiner);
  departures_.signers_by_subject.erase(joiner);
  rebuild_repairs();
  notify_membership(joiner, /*join=*/true);
}

void HermesNode::on_state_catchup(const sim::Message& msg) {
  if (!healing_enabled()) return;
  merge_horizon(msg.as<StateCatchUpBody>().max_seen);
}

void HermesNode::notify_membership(net::NodeId node, bool join) {
  if (shared_->notify_membership) {
    shared_->notify_membership(node, join, shared_->epoch);
  }
}

Bytes HermesNode::view_change_material(std::uint64_t epoch,
                                       net::NodeId voter) {
  Bytes out = to_bytes("hermes.viewchange.v1");
  put_u64_be(out, epoch);
  put_u32_be(out, voter);
  return out;
}

void HermesNode::cast_view_change_vote() {
  const std::uint64_t epoch = shared_->epoch;
  auto vote = std::make_shared<ViewChangeVoteBody>();
  vote->from_epoch = epoch;
  vote->voter = id();
  vote->signature = sign(view_change_material(epoch, id()));
  view_change_votes_[epoch].insert(id());
  for (net::NodeId member : shared_->committee) {
    if (member != id()) send_to(member, kMsgViewChangeVote, 32, vote);
  }
  maybe_trigger_view_change(epoch);
}

void HermesNode::on_view_change_vote(const sim::Message& msg) {
  if (!healing_enabled() || !committee_state_) return;
  const auto& vote = msg.as<ViewChangeVoteBody>();
  if (vote.voter != msg.src || !shared_->is_committee_member(vote.voter)) {
    return;
  }
  if (!signed_by(vote.voter, view_change_material(vote.from_epoch, vote.voter),
                 vote.signature)) {
    return;
  }
  if (vote.from_epoch != shared_->epoch) return;  // stale epoch
  view_change_votes_[vote.from_epoch].insert(vote.voter);
  maybe_trigger_view_change(vote.from_epoch);
}

void HermesNode::maybe_trigger_view_change(std::uint64_t epoch) {
  if (epoch != shared_->epoch) return;
  const auto it = view_change_votes_.find(epoch);
  if (it == view_change_votes_.end()) return;
  // f+1 committee votes contain at least one honest member's judgment.
  if (it->second.size() < shared_->config.f + 1) return;
  if (shared_->request_view_change) shared_->request_view_change(epoch);
}

Bytes HermesNode::report_material(const Violation& v, net::NodeId reporter) {
  Bytes out = to_bytes("hermes.report.v1");
  out.push_back(static_cast<std::uint8_t>(v.kind));
  put_u32_be(out, v.offender);
  put_u64_be(out, v.tx_id);
  put_u32_be(out, reporter);
  put_u64_be(out, static_cast<std::uint64_t>(v.at * 1000.0));
  return out;
}

void HermesNode::record_violation(ViolationKind kind, net::NodeId offender,
                                  std::uint64_t tx_id) {
  audit_.record(now(), kind, offender, tx_id);
  auto report = std::make_shared<ViolationReportBody>();
  report->violation = Violation{now(), kind, offender, tx_id};
  report->reporter = id();
  const Bytes material = report_material(report->violation, id());
  report->signature = sign(material);
  // Our own accusation counts toward f+1 once peers' arrive, but never
  // tips it alone: exclusion takes f+1 accusers, checked on receipt.
  accusations_.accept(material);
  accusations_.count(offender, id());
  gossip(kMsgViolationReport, 80, std::move(report));
}

void HermesNode::on_violation_report(const sim::Message& msg) {
  const auto& report = msg.as<ViolationReportBody>();
  // Reports only ever travel between correct nodes if valid: check the
  // ids and the reporter's signature, dedup, then count the accusation.
  const net::NodeId offender = report.violation.offender;
  if (!accept_evidence(accusations_, offender, report.reporter,
                       report_material(report.violation, report.reporter),
                       report.signature)) {
    return;
  }
  // f+1 distinct accusers cannot all be faulty: exclude network-wide.
  if (accusations_.count(offender, report.reporter) >= shared_->config.f + 1 &&
      global_excluded_.insert(offender).second) {
    // Self-healing: an excluded peer is routed around immediately, not
    // just ignored — every honest node repairs its trees in place.
    mark_removed(offender);
  }
  if (relays()) gossip(kMsgViolationReport, 80, msg.body);
}

// ---------------------------------------------------------------------------
// Signed evidence, shared by violation reports, departure reports, join
// witnesses and view-change votes.

Bytes HermesNode::sign(const Bytes& material) const {
  return crypto::SimSigner::derive(shared_->report_master_key, id())
      .sign(material);
}

bool HermesNode::signed_by(net::NodeId signer, const Bytes& material,
                           const Bytes& signature) const {
  return signer < ctx_.node_count() &&
         crypto::SimSigner::derive(shared_->report_master_key, signer)
             .verify(material, signature);
}

bool HermesNode::accept_evidence(EvidenceTally& tally, net::NodeId subject,
                                 net::NodeId signer, const Bytes& material,
                                 const Bytes& signature) {
  return subject < ctx_.node_count() &&
         signed_by(signer, material, signature) && tally.accept(material);
}

void HermesNode::gossip(std::uint32_t type, std::size_t wire,
                        std::shared_ptr<const sim::MessageBody> body) {
  send_to_sample(rng_, kReportFanout, id(), type, wire, body);
}

std::size_t HermesNode::acks_received(std::uint64_t tx_id) const {
  const auto it = acks_of_.find(tx_id);
  return it == acks_of_.end() ? 0 : it->second;
}

void HermesNode::start_ack_aggregation(std::uint64_t tx_id,
                                       std::size_t overlay_index) {
  AckState& state = ack_state_[tx_id];
  state.pending += 1;  // this node's own delivery
  ctx_.engine.schedule(kAckAggregateMs,
                       [this, tx_id, overlay_index] {
                         flush_ack(tx_id, overlay_index);
                       });
}

void HermesNode::flush_ack(std::uint64_t tx_id, std::size_t overlay_index) {
  AckState& state = ack_state_[tx_id];
  if (state.pending == 0) return;
  const std::uint32_t count = state.pending;
  state.pending = 0;
  state.flushed = true;

  const DataBody* held = find_held(tx_id);
  const net::NodeId origin = held != nullptr ? held->trs.origin : id();
  if (origin == id()) {
    acks_of_[tx_id] += count;
    return;
  }
  const HermesShared* shared =
      held != nullptr ? shared_for_epoch(held->epoch) : shared_.get();
  if (shared == nullptr || overlay_index >= shared->overlays.size()) return;
  const overlay::Overlay& ov = shared->overlays[overlay_index];
  auto body = std::make_shared<AckUpBody>();
  body->tx_id = tx_id;
  body->overlay_index = static_cast<std::uint32_t>(overlay_index);
  body->count = count;
  if (ov.is_entry(id()) || ov.predecessors(id()).empty()) {
    // Top of the overlay: report to the origin directly.
    send_to(origin, kMsgAckUp, 24, std::move(body));
    return;
  }
  // Report to the lowest-latency predecessor (the reverse of the cheapest
  // downstream link).
  net::NodeId best = ov.predecessors(id())[0];
  double best_lat = ov.link_latency(best, id());
  for (net::NodeId p : ov.predecessors(id())) {
    const double lat = ov.link_latency(p, id());
    if (lat < best_lat) {
      best_lat = lat;
      best = p;
    }
  }
  send_to(best, kMsgAckUp, 24, std::move(body));
}

void HermesNode::on_ack_up(const sim::Message& msg) {
  if (!shared_->config.enable_acks) return;
  const auto& ack = msg.as<AckUpBody>();
  if (ack.overlay_index >= shared_->config.k) return;
  AckState& state = ack_state_[ack.tx_id];
  state.pending += ack.count;
  if (state.flushed && relays()) {
    // Aggregation window already closed: pass increments along promptly.
    flush_ack(ack.tx_id, ack.overlay_index);
  }
}

void HermesNode::on_message(const sim::Message& msg) {
  switch (msg.type) {
    case kMsgTrsRequest: on_trs_request(msg); return;
    case kMsgTrsEcho: on_trs_vote(msg, /*is_ready=*/false); return;
    case kMsgTrsReady: on_trs_vote(msg, /*is_ready=*/true); return;
    case kMsgTrsPartial: on_trs_partial(msg); return;
    case kMsgData: on_data(msg); return;
    case kMsgFallback: on_fallback(msg); return;
    case kMsgFallbackOffer: on_fallback_offer(msg); return;
    case kMsgFallbackRequest: on_fallback_request(msg); return;
    case kMsgBatchChunk: on_batch_chunk(msg); return;
    case kMsgAckUp: on_ack_up(msg); return;
    case kMsgViolationReport: on_violation_report(msg); return;
    case kMsgDepartureReport: on_departure_report(msg); return;
    case kMsgViewChangeVote: on_view_change_vote(msg); return;
    case kMsgSeqDigest: on_seq_digest(msg); return;
    case kMsgJoinRequest: on_join_request(msg); return;
    case kMsgJoinWitness: on_join_witness(msg); return;
    case kMsgStateCatchUp: on_state_catchup(msg); return;
    default: return;
  }
}

// ---------------------------------------------------------------------------
// HermesProtocol

std::unique_ptr<ProtocolNode> HermesProtocol::make_node(ExperimentContext& ctx,
                                                        net::NodeId id) {
  if (!shared_) {
    auto shared = std::make_shared<HermesShared>();
    shared->config = config_;
    shared->config.builder.f = config_.f;
    shared->config.builder.k = config_.k;

    Rng build_rng = ctx.rng.fork(0x0e11a5);
    auto set = overlay::build_overlay_set(ctx.topology.graph,
                                          shared->config.builder, build_rng);

    if (config_.use_real_threshold_crypto) {
      Rng key_rng = ctx.rng.fork(0x45a);
      shared->scheme = std::make_shared<crypto::RsaThresholdScheme>(
          crypto::threshold_rsa_generate(key_rng,
                                         config_.real_threshold_rsa_bits,
                                         config_.committee_size(),
                                         config_.trs_threshold()));
    } else {
      Bytes group_key(32, 0);
      for (auto& b : group_key) {
        b = static_cast<std::uint8_t>(build_rng.next_u64());
      }
      shared->scheme = std::make_shared<crypto::SimThresholdScheme>(
          group_key, config_.committee_size(), config_.trs_threshold());
    }
    shared->report_master_key.assign(32, 0);
    for (auto& b : shared->report_master_key) {
      b = static_cast<std::uint8_t>(build_rng.next_u64());
    }

    certify(*shared, std::move(set));

    if (config_.committee.empty()) {
      Rng pick_rng = ctx.rng.fork(0xc0111);
      shared->committee = pick_committee(ctx, config_.f, pick_rng);
    } else {
      shared->committee = config_.committee;
    }
    ExperimentContext* ctx_ptr = &ctx;
    if (config_.enable_self_healing) {
      // Bridge from committee health votes back to the epoch machinery.
      // The advance is deferred one event: advance_epoch swaps the shared
      // state under every node, and doing that inside a message handler
      // that is still reading it invites reentrancy bugs. On a sharded
      // engine the deferral doubles as the synchronization point — requests
      // fire on committee lanes, so the cooldown/counter mutation moves
      // inside the global (barrier-serialized) event, with only the cheap
      // stale-epoch test left inline.
      shared->request_view_change = [this, ctx_ptr](std::uint64_t from_epoch) {
        if (!shared_ || shared_->epoch != from_epoch) return;
        ctx_ptr->engine.schedule_global(0.0, [this, ctx_ptr, from_epoch] {
          if (!shared_ || shared_->epoch != from_epoch) return;
          const double now_ms = ctx_ptr->engine.now();
          if (now_ms - last_auto_advance_ms_ <
              config_.view_change_cooldown_ms) {
            return;  // anti-flapping cooldown
          }
          last_auto_advance_ms_ = now_ms;
          ++auto_advances_;
          advance_epoch(*ctx_ptr, 0x5e1f11a9ULL ^ (from_epoch + 1));
        });
      };
    }
    if (config_.enable_self_healing && config_.enable_epoch_pipeline) {
      // Background epoch pipeline: membership changes reported by nodes
      // are deduplicated against the absolute membership state inside a
      // barrier-serialized control event (every honest node reports each
      // admission/departure; only the first state change counts), then fed
      // to the bounded delta queue. The pipeline's own callbacks run as
      // global control events too, so the warm rebuild plus quiescent
      // handoff stay deterministic on the sharded engine.
      pipeline_ = std::make_unique<EpochPipeline>(
          [ctx_ptr](double delay_ms, std::function<void()> fn) {
            ctx_ptr->engine.schedule_global(delay_ms, std::move(fn));
          },
          [this, ctx_ptr](const std::vector<MembershipDelta>& deltas) {
            install_pipelined(*ctx_ptr, deltas);
          });
      shared->notify_membership = [this, ctx_ptr](net::NodeId node, bool join,
                                                  std::uint64_t epoch) {
        ctx_ptr->engine.schedule_global(0.0, [this, node, join, epoch] {
          auto& present =
              membership_state_.try_emplace(node, true).first->second;
          if (!join) {
            if (!present) return;  // departure already acted on
            present = false;
            pipeline_->on_membership_change({node, false});
            return;
          }
          auto& acted = rejoin_epoch_.try_emplace(node, 0).first->second;
          if (!present) {
            // Presence flips always act: departure reports and admission
            // reports race, and a join landing while the node is marked
            // absent is the corrective half of that race. Recording the
            // admission epoch stops later duplicate reports of the same
            // admission from being mistaken for a fresh incarnation below.
            present = true;
            acted = std::max(acted, epoch + 1);
            pipeline_->on_membership_change({node, true});
            return;
          }
          // Join-while-present: either a duplicate report of an admission
          // already acted on this generation, or — when this generation's
          // admission was not yet seen — incarnation evidence: the signed
          // join request proves the node restarted even when its crash left
          // no silence trail (leaves have no successors to observe them).
          // Convert the latter to an implicit leave+join. The per-(node,
          // epoch) dedup matches the protocol's own admission granularity
          // (witness material binds the epoch; the per-generation tallies
          // admit each joiner at most once).
          if (acted >= epoch + 1) return;  // admission already acted on
          acted = epoch + 1;
          pipeline_->on_membership_change({node, false});
          pipeline_->on_membership_change({node, true});
        });
      };
    }
    shared_ = std::move(shared);
  }
  return std::make_unique<HermesNode>(ctx, id, shared_);
}

std::shared_ptr<HermesShared> HermesProtocol::clone_shared_for_next_epoch()
    const {
  auto next = std::make_shared<HermesShared>();
  next->config = shared_->config;
  next->epoch = shared_->epoch + 1;
  next->scheme = shared_->scheme;
  next->committee = shared_->committee;
  next->report_master_key = shared_->report_master_key;
  next->request_view_change = shared_->request_view_change;
  next->notify_membership = shared_->notify_membership;
  return next;
}

void HermesProtocol::certify(HermesShared& shared, overlay::OverlaySet&& set) {
  shared.overlays = std::move(set.overlays);
  for (auto& ov : shared.overlays) {
    auto cert = overlay::certify_overlay(ov, *shared.scheme);
    HERMES_REQUIRE(cert.has_value());
    overlay::Overlay decoded;
    HERMES_REQUIRE(
        overlay::verify_certified_overlay(*cert, *shared.scheme, &decoded));
    shared.certificates.push_back(std::move(*cert));
    ov = std::move(decoded);  // install exactly what the wire carried
  }
  last_set_.overlays = shared.overlays;
  last_set_.final_ranks = std::move(set.final_ranks);
}

void HermesProtocol::install_generation(ExperimentContext& ctx,
                                        std::shared_ptr<HermesShared> next,
                                        overlay::OverlaySet&& set) {
  certify(*next, std::move(set));
  shared_ = next;
  for (auto& node : ctx.nodes) {
    if (auto* hermes_node = dynamic_cast<HermesNode*>(node.get())) {
      hermes_node->install_shared(next);
    }
  }
  if (install_observer_) install_observer_(next, ctx.engine.now());
}

void HermesProtocol::advance_epoch(ExperimentContext& ctx,
                                   std::uint64_t epoch_seed) {
  HERMES_REQUIRE(shared_ != nullptr && "populate() must run first");
  auto next = clone_shared_for_next_epoch();

  // Deterministic per-epoch construction seed (Section VII-B: the committee
  // publishes it so every node can verify the pseudo-random optimization).
  Rng build_rng(epoch_seed ^ (next->epoch * 0x9e3779b97f4a7c15ULL));
  auto set = overlay::build_overlay_set(ctx.topology.graph,
                                        next->config.builder, build_rng);
  ++stw_advances_;
  install_generation(ctx, std::move(next), std::move(set));
}

void HermesProtocol::install_pipelined(
    ExperimentContext& ctx, const std::vector<MembershipDelta>& deltas) {
  HERMES_REQUIRE(shared_ != nullptr);
  auto next = clone_shared_for_next_epoch();

  // Fold the queued deltas into the canonical churn set (membership state
  // is absolute: the latest state of each node wins, and the warm rebuild
  // re-places every churned node either way).
  std::set<net::NodeId> churned_set;
  for (const auto& d : deltas) churned_set.insert(d.node);
  const std::vector<net::NodeId> churned(churned_set.begin(),
                                         churned_set.end());

  // The pipelined epoch's seed is a pure function of the epoch number, so
  // any node can verify the warm rebuild just like a scratch one.
  Rng build_rng(0x91e11e5eULL ^ (next->epoch * 0x9e3779b97f4a7c15ULL));
  if (!costs_) {
    costs_ = std::make_unique<overlay::LinkCostCache>(ctx.topology.graph);
  }
  auto set = overlay::build_overlay_set_warm(ctx.topology.graph,
                                             next->config.builder, last_set_,
                                             churned, build_rng, costs_.get());
  install_generation(ctx, std::move(next), std::move(set));
}

}  // namespace hermes::hermes_proto
