// End-to-end benchmark runner: one named workload per process, set-up
// included.
//
// A run builds the world through the public entry points only —
// net::make_topology, protocols::populate, workload::generate_arrivals and
// schedule_arrivals, Engine::run_until — then analyzes the outcome, and
// prints one JSON line with every metric by name and unit. Metrics flagged "exact" are pure
// functions of the seed and the workload, whatever the worker count;
// e2ebench/run.py checks that they repeat bit for bit. Every other metric is
// a wall-clock or memory reading.
//
// With --trace PATH the run also counts sends per message type through the
// network's send tap, times standalone calls into the overlay builder and
// the threshold scheme the run used, and writes its spans to PATH in Chrome
// trace-event format (load it in chrome://tracing or ui.perfetto.dev).
//
// Usage:
//   hermes_e2e --workload NAME [--seed S] [--nodes N] [--txs K]
//              [--workers W] [--signer sim|real] [--trace PATH]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sim_signer.hpp"
#include "crypto/threshold_rsa.hpp"
#include "hermes/hermes_node.hpp"
#include "overlay/builder.hpp"
#include "overlay/encoding.hpp"
#include "protocols/narwhal.hpp"
#include "support/stats.hpp"
#include "workload/driver.hpp"
#include "workload/economics.hpp"

namespace {

using namespace hermes;
using Clock = std::chrono::steady_clock;

enum class Proto { kHermes, kNarwhal };

// Why each workload exists is recorded in e2ebench/README.md.
struct Workload {
  std::string_view name;
  Proto protocol;
  std::size_t nodes;
  bool real_crypto;
  double rate_hz;
  // The load is the first `txs` arrivals of a Poisson process at rate_hz:
  // a fixed count, so the work per run does not vary with the seed.
  std::size_t txs;
  std::size_t mempool_capacity;  // 0 = unbounded
  double frontrunner_fraction;
  std::size_t workers;
};

constexpr Workload kWorkloads[] = {
    {"steady-2k", Proto::kHermes, 2000, false, 100.0, 100, 0, 0.0, 4},
    {"prologue-3k", Proto::kHermes, 3000, false, 30.0, 30, 0, 0.0, 4},
    {"real-crypto", Proto::kHermes, 500, true, 40.0, 40, 0, 0.0, 1},
    {"narwhal-frontrun", Proto::kNarwhal, 1000, false, 100.0, 150, 48, 0.15,
     4},
};

// --seed drives the topology and the arrivals. The world seed behind the
// network rng, behaviours, committee, annealing and threshold key is fixed:
// safe-prime keygen alone ranges from 0.3 s to 6.7 s at 1024 bits over
// seeds 1-12, which would swamp every other set-up cost if it followed
// --seed.
constexpr std::uint64_t kWorldSeed = 42 ^ 0x5eedULL;
// Every run drains this long (simulated) after the last arrival.
constexpr double kDrainMs = 3000.0;
constexpr std::size_t kRealRsaBits = 1024;
// Simulated time per run_until call; each call is one span in the trace.
constexpr double kRunSliceMs = 1000.0;
// Repetitions behind each per-operation crypto median.
constexpr std::size_t kCryptoReps = 32;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  std::size_t nodes = 0;
  std::size_t txs = 0;
  std::size_t workers = 0;
  bool real_crypto = false;
  std::string trace_path;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  std::optional<bool> signer_real;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == value) opt.workload = &w;
      }
      if (opt.workload == nullptr) return std::nullopt;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      opt.seed = n;
    } else if (flag == "--nodes" && parse_u64(value, n) && n >= 16) {
      opt.nodes = n;
    } else if (flag == "--txs" && parse_u64(value, n) && n > 0) {
      opt.txs = n;
    } else if (flag == "--workers" && parse_u64(value, n) && n > 0) {
      opt.workers = n;
    } else if (flag == "--signer" && (std::strcmp(value, "sim") == 0 ||
                                      std::strcmp(value, "real") == 0)) {
      signer_real = std::strcmp(value, "real") == 0;
    } else if (flag == "--trace") {
      opt.trace_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (opt.workload == nullptr || argc % 2 == 0) return std::nullopt;
  const Workload& w = *opt.workload;
  if (opt.nodes == 0) opt.nodes = w.nodes;
  if (opt.txs == 0) opt.txs = w.txs;
  if (opt.workers == 0) opt.workers = w.workers;
  opt.real_crypto = signer_real.value_or(w.real_crypto);
  return opt;
}

// Nested wall-clock spans recorded from this file around calls into each
// layer. Self time = duration minus the time covered by child spans.
class Spans {
 public:
  void open(std::string name) {
    const int parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    stack_.push_back(spans_.size());
    spans_.push_back(Span{std::move(name), parent, seconds(), 0.0});
  }
  // Closes the innermost open span and returns its duration in seconds.
  double close() {
    Span& s = spans_[stack_.back()];
    stack_.pop_back();
    s.end_s = seconds();
    return s.end_s - s.start_s;
  }

  void write_chrome_trace(std::FILE* f) const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_s[s.parent] += s.end_s - s.start_s;
    }
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = s.end_s - s.start_s;
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"self_us\": %.3f}}%s\n",
                   s.name.c_str(), s.start_s * 1e6, dur * 1e6, i, s.parent,
                   (dur - child_s[i]) * 1e6,
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

struct Metric {
  std::string name;
  std::optional<double> value;  // printed as null when absent
  const char* unit;
  bool exact;
};

class Metrics {
 public:
  void wall(std::string name, double value, const char* unit) {
    items_.push_back(Metric{std::move(name), value, unit, false});
  }
  void exact(std::string name, std::optional<double> value,
             const char* unit) {
    items_.push_back(Metric{std::move(name), value, unit, true});
  }

  void print(const Options& opt) const {
    std::printf("{\"workload\": \"%s\", \"protocol\": \"%s\", "
                "\"seed\": %" PRIu64 ", \"nodes\": %zu, \"workers\": %zu, "
                "\"signer\": \"%s\", \"metrics\": {",
                std::string(opt.workload->name).c_str(),
                opt.workload->protocol == Proto::kHermes ? "hermes" : "narwhal",
                opt.seed, opt.nodes, opt.workers,
                opt.real_crypto ? "real" : "sim");
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Metric& m = items_[i];
      std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                  m.name.c_str());
      if (m.value) {
        std::printf("%.17g", *m.value);
      } else {
        std::printf("null");
      }
      std::printf(", \"unit\": \"%s\", \"exact\": %s}", m.unit,
                  m.exact ? "true" : "false");
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> items_;
};

// Message type -> metric name, for the send-tap counts.
struct MsgName {
  std::uint32_t type;
  const char* name;
};
using HN = hermes_proto::HermesNode;
using NN = protocols::NarwhalNode;
constexpr MsgName kHermesMsgs[] = {
    {HN::kMsgTrsRequest, "trs_request"},
    {HN::kMsgTrsEcho, "trs_echo"},
    {HN::kMsgTrsReady, "trs_ready"},
    {HN::kMsgTrsPartial, "trs_partial"},
    {HN::kMsgData, "data"},
    {HN::kMsgFallback, "fallback"},
    {HN::kMsgFallbackOffer, "fallback_offer"},
    {HN::kMsgFallbackRequest, "fallback_request"},
    {HN::kMsgBatchChunk, "batch_chunk"},
    {HN::kMsgAckUp, "ack_up"},
    {HN::kMsgViolationReport, "violation_report"},
    {HN::kMsgDepartureReport, "departure_report"},
    {HN::kMsgViewChangeVote, "view_change_vote"},
    {HN::kMsgSeqDigest, "seq_digest"},
    {HN::kMsgJoinRequest, "join_request"},
    {HN::kMsgJoinWitness, "join_witness"},
    {HN::kMsgStateCatchUp, "state_catch_up"},
};
constexpr MsgName kNarwhalMsgs[] = {
    {NN::kMsgTx, "tx"},
    {NN::kMsgAck, "ack"},
    {NN::kMsgCert, "cert"},
    {NN::kMsgFetch, "fetch"},
};
constexpr std::size_t kMaxMsgType = 64;

// HERMES as bench_sim_engine's scale_hermes_config: f = 1, k = 3 and a
// short annealing schedule.
hermes_proto::HermesConfig hermes_config(bool real_crypto) {
  hermes_proto::HermesConfig cfg;
  cfg.f = 1;
  cfg.k = 3;
  cfg.builder.annealing.initial_temperature = 5.0;
  cfg.builder.annealing.min_temperature = 1.0;
  cfg.builder.annealing.cooling_rate = 0.8;
  cfg.builder.annealing.moves_per_temperature = 4;
  cfg.use_real_threshold_crypto = real_crypto;
  cfg.real_threshold_rsa_bits = kRealRsaBits;
  return cfg;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename F>
double median_us(F&& op) {
  std::vector<double> us;
  for (std::size_t i = 0; i < kCryptoReps; ++i) {
    const auto t0 = Clock::now();
    op(i);
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                     .count());
  }
  return percentile_of(std::move(us), 50.0);
}

// Standalone timings of the layers populate() runs as one call: the robust
// trees alone (no annealing), certification of the k trees, key generation,
// and one TRS round's threshold operations on the run's own scheme. The
// rng forks replay the ones HermesProtocol::make_node draws, so the probes
// repeat the run's own keygen and tree work.
void probe_hermes_layers(const net::Graph& graph,
                         const hermes_proto::HermesShared& shared,
                         Spans& spans, Metrics& out) {
  Rng protocol_rng = Rng(kWorldSeed).fork(2);
  Rng build_rng = protocol_rng.fork(0x0e11a5);
  Rng key_rng = protocol_rng.fork(0x45a);

  overlay::BuilderParams trees_only = shared.config.builder;
  trees_only.optimize = false;
  spans.open("overlay.tree");
  overlay::build_overlay_set(graph, trees_only, build_rng);
  const double tree_s = spans.close();

  spans.open("overlay.certify");
  for (const overlay::Overlay& ov : shared.overlays) {
    const auto cert = overlay::certify_overlay(ov, *shared.scheme);
    HERMES_REQUIRE(cert.has_value());
    HERMES_REQUIRE(overlay::verify_certified_overlay(*cert, *shared.scheme));
  }
  const double certify_s = spans.close();

  const auto& cfg = shared.config;
  spans.open("crypto.keygen");
  if (cfg.use_real_threshold_crypto) {
    crypto::threshold_rsa_generate(key_rng, cfg.real_threshold_rsa_bits,
                                   cfg.committee_size(), cfg.trs_threshold());
  } else {
    crypto::SimThresholdScheme(Bytes(32, 7), cfg.committee_size(),
                               cfg.trs_threshold());
  }
  const double keygen_s = spans.close();

  out.wall("overlay.tree_s", tree_s, "s");
  out.wall("overlay.certify_s", certify_s, "s");
  out.wall("crypto.keygen_s", keygen_s, "s");

  const crypto::ThresholdScheme& scheme = *shared.scheme;
  const auto message = [](std::size_t i) {
    const std::string s = "e2e-trs-probe-" + std::to_string(i);
    return Bytes(s.begin(), s.end());
  };
  spans.open("crypto.ops");
  out.wall("crypto.partial_sign_us", median_us([&](std::size_t i) {
             scheme.partial_sign(1 + i % scheme.players(), message(i));
           }),
           "us");
  std::vector<std::vector<crypto::PartialSignature>> rounds(kCryptoReps);
  for (std::size_t i = 0; i < kCryptoReps; ++i) {
    for (std::size_t idx = 1; idx <= scheme.threshold(); ++idx) {
      rounds[i].push_back(scheme.partial_sign(idx, message(i)));
    }
  }
  out.wall("crypto.verify_partials_us", median_us([&](std::size_t i) {
             const auto ok = scheme.verify_partials(message(i), rounds[i]);
             HERMES_REQUIRE(std::count(ok.begin(), ok.end(), 1) ==
                            static_cast<std::ptrdiff_t>(ok.size()));
           }),
           "us");
  std::vector<Bytes> combined(kCryptoReps);
  // combine_verified, as the TRS collector calls it: the partials were
  // checked on arrival.
  out.wall("crypto.combine_us", median_us([&](std::size_t i) {
             const auto sig = scheme.combine_verified(message(i), rounds[i]);
             HERMES_REQUIRE(sig.has_value());
             combined[i] = *sig;
           }),
           "us");
  out.wall("crypto.verify_combined_us", median_us([&](std::size_t i) {
             HERMES_REQUIRE(scheme.verify_combined(message(i), combined[i]));
           }),
           "us");
  spans.close();
}

void zero_hermes_layers(Metrics& out) {
  for (const char* name :
       {"overlay.tree_s", "overlay.certify_s", "crypto.keygen_s"}) {
    out.wall(name, 0.0, "s");
  }
  for (const char* name :
       {"crypto.partial_sign_us", "crypto.verify_partials_us",
        "crypto.combine_us", "crypto.verify_combined_us"}) {
    out.wall(name, 0.0, "us");
  }
}

// Everything the metrics need from the finished world, read before it is
// torn down.
struct Outcome {
  double attempted = 0.0;
  std::size_t failed = 0;
  std::size_t live_honest = 0;
  std::size_t latency_samples = 0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  std::optional<double> frontrun_rate;  // only when front-runners exist
  sim::BandwidthCounters total;
  std::uint64_t drops = 0;
  double trs_wait_ms = 0.0;
  std::size_t admitted = 0;
  std::size_t evicted = 0;
  std::size_t rejected = 0;
};

Outcome analyze(const protocols::ExperimentContext& ctx,
                const workload::ScheduleResult& sched, bool attacked) {
  Outcome oc;
  oc.attempted = static_cast<double>(sched.txs.size());
  for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
    if (ctx.is_honest(v) && !ctx.network.is_crashed(v)) ++oc.live_honest;
  }
  // Latency runs from each transaction's due time to its first delivery
  // at every live honest node but the origin, pooled over all pairs, so
  // HERMES's TRS round counts. A transaction missing any such node failed.
  std::vector<double> latencies;
  for (const mempool::Transaction& tx : sched.txs) {
    bool complete = true;
    for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
      if (v == tx.sender || !ctx.is_honest(v) || ctx.network.is_crashed(v)) {
        continue;
      }
      const double at = ctx.tracker.delivery_time(tx.id, v);
      if (at < 0.0) {
        complete = false;
      } else {
        latencies.push_back(at - tx.created_at);
      }
    }
    if (!complete) ++oc.failed;
  }
  oc.latency_samples = latencies.size();
  oc.latency_p50_ms = percentile_of(latencies, 50.0);
  oc.latency_p99_ms = percentile_of(std::move(latencies), 99.0);
  if (attacked) {
    oc.frontrun_rate =
        workload::analyze_attacks(ctx, sched.txs).insertion_rate();
  }
  oc.total = ctx.network.total();
  oc.drops = ctx.network.dropped_messages();

  double trs_wait_sum = 0.0;
  std::size_t trs_waits = 0;
  for (net::NodeId v = 0; v < ctx.node_count(); ++v) {
    if (!ctx.is_honest(v)) continue;
    const protocols::ProtocolNode* node = ctx.nodes[v].get();
    oc.admitted += node->pool().admitted_total();
    oc.evicted += node->pool().evicted_total();
    oc.rejected += node->pool().rejected_total();
    if (const auto* hn = dynamic_cast<const HN*>(node)) {
      const RunningStats& s = hn->trs_wait_ms();
      trs_wait_sum += s.mean() * static_cast<double>(s.count());
      trs_waits += s.count();
    }
  }
  if (trs_waits > 0) {
    oc.trs_wait_ms = trs_wait_sum / static_cast<double>(trs_waits);
  }
  return oc;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> parsed = parse(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: hermes_e2e --workload NAME [--seed S] [--nodes N] "
                 "[--txs K] [--workers W] [--signer sim|real] "
                 "[--trace PATH]\nworkloads:");
    for (const Workload& w : kWorkloads) {
      std::fprintf(stderr, " %s", std::string(w.name).c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Options& opt = *parsed;
  const Workload& w = *opt.workload;
  const bool traced = !opt.trace_path.empty();
  const bool attacked = w.frontrunner_fraction > 0.0;

  Spans spans;
  spans.open("iteration");

  spans.open("setup");
  spans.open("net.topology");
  net::TopologyParams tp;
  tp.node_count = opt.nodes;
  Rng topo_rng(opt.seed);
  net::Topology topology = net::make_topology(tp, topo_rng);
  const double topology_s = spans.close();

  spans.open("sim.world");
  sim::NetworkParams np;
  np.workers = opt.workers;
  auto ctx = std::make_unique<protocols::ExperimentContext>(
      std::move(topology), np, kWorldSeed);
  if (attacked) {
    ctx->assign_behaviors(w.frontrunner_fraction,
                          protocols::Behavior::kFrontRunner);
  }
  ctx->mempool_capacity = w.mempool_capacity;
  hermes_proto::HermesProtocol* hermes = nullptr;
  std::unique_ptr<protocols::Protocol> protocol;
  if (w.protocol == Proto::kHermes) {
    auto hp = std::make_unique<hermes_proto::HermesProtocol>(
        hermes_config(opt.real_crypto));
    hermes = hp.get();
    protocol = std::move(hp);
  } else {
    protocol = std::make_unique<protocols::NarwhalProtocol>();
  }
  const double world_s = spans.close();

  spans.open("protocols.populate");
  protocols::populate(*ctx, *protocol);
  const double populate_s = spans.close();
  const double setup_s = spans.close();

  std::array<std::uint64_t, kMaxMsgType> sends_by_type{};
  if (traced) {
    // The tap fires at window barriers in deterministic order, never
    // concurrently, so plain counters are safe.
    ctx->network.set_send_tap([&sends_by_type](const sim::Message& m,
                                               sim::SimTime) {
      if (m.type < kMaxMsgType) ++sends_by_type[m.type];
    });
  }

  // Open loop in simulated time: every arrival is a control event that
  // fires at its due time whatever the system's state.
  spans.open("run");
  spans.open("workload.schedule");
  workload::WorkloadParams wp;
  wp.rate_hz = w.rate_hz;
  // Four times the expected span: falling short of opt.txs is out of reach.
  wp.duration_ms = 4000.0 * static_cast<double>(opt.txs) / w.rate_hz;
  wp.seed = opt.seed;
  std::vector<workload::Arrival> arrivals =
      workload::generate_arrivals(wp, ctx->honest_nodes());
  if (arrivals.size() < opt.txs) {
    std::fprintf(stderr, "only %zu arrivals in %.0f ms\n", arrivals.size(),
                 wp.duration_ms);
    return 1;
  }
  arrivals.resize(opt.txs);
  ctx->attack_enabled = attacked;
  const workload::ScheduleResult sched =
      workload::schedule_arrivals(*ctx, arrivals);
  const double schedule_s = spans.close();
  const double end_ms = sched.horizon_ms + kDrainMs;
  std::uint64_t events = 0;
  for (double t = 0.0; t < end_ms;) {
    t = std::min(t + kRunSliceMs, end_ms);
    spans.open("sim.run_until");
    events += ctx->engine.run_until(t);
    spans.close();
  }
  const double run_s = spans.close();

  spans.open("workload.analyze");
  const Outcome oc = analyze(*ctx, sched, attacked);
  const double analyze_s = spans.close();

  // The probes outlive the world: keep the overlays, the scheme and the
  // graph they need.
  std::shared_ptr<const hermes_proto::HermesShared> shared;
  std::optional<net::Graph> graph;
  if (traced && hermes != nullptr) {
    shared = hermes->shared();
    graph = ctx->topology.graph;
  }
  spans.open("sim.teardown");
  ctx.reset();
  protocol.reset();
  const double teardown_s = spans.close();
  const double wall_s = spans.close();

  Metrics out;
  out.wall("setup_s", setup_s, "s");
  out.wall("run_s", run_s, "s");
  out.wall("wall_s", wall_s, "s");
  out.wall("peak_rss_mb", peak_rss_mb(), "MB");
  out.wall("net.topology_s", topology_s, "s");
  out.wall("sim.world_s", world_s, "s");
  out.wall("protocols.populate_s", populate_s, "s");
  out.wall("workload.schedule_s", schedule_s, "s");
  out.wall("workload.analyze_s", analyze_s, "s");
  out.wall("sim.teardown_s", teardown_s, "s");
  out.wall("sim.events_per_s", static_cast<double>(events) / run_s, "1/s");

  out.exact("attempted", oc.attempted, "count");
  out.exact("failed", static_cast<double>(oc.failed), "count");
  out.exact("fail_rate", static_cast<double>(oc.failed) / oc.attempted,
            "ratio");
  out.exact("latency_samples", static_cast<double>(oc.latency_samples),
            "count");
  out.exact("tx_latency_p50_ms", oc.latency_p50_ms, "ms");
  out.exact("tx_latency_p99_ms", oc.latency_p99_ms, "ms");
  out.exact("sends_per_tx",
            static_cast<double>(oc.total.messages_sent) / oc.attempted, "msgs");
  out.exact("bytes_per_tx",
            static_cast<double>(oc.total.bytes_sent) / 1024.0 / oc.attempted,
            "KB");
  out.exact("frontrun_success_rate", oc.frontrun_rate, "ratio");
  out.exact("sim.events", static_cast<double>(events), "count");
  out.exact("sim.sends", static_cast<double>(oc.total.messages_sent), "count");
  out.exact("sim.bytes", static_cast<double>(oc.total.bytes_sent), "B");
  out.exact("sim.drops", static_cast<double>(oc.drops), "count");
  out.exact("hermes.trs_wait_ms", oc.trs_wait_ms, "ms");
  out.exact("mempool.admitted", static_cast<double>(oc.admitted), "count");
  out.exact("mempool.evicted", static_cast<double>(oc.evicted), "count");
  out.exact("mempool.rejected", static_cast<double>(oc.rejected), "count");
  out.exact("mempool.eviction_ratio",
            oc.admitted == 0 ? 0.0
                             : static_cast<double>(oc.evicted) /
                                   static_cast<double>(oc.admitted),
            "ratio");

  if (traced) {
    // Narwhal reuses the low type numbers other protocols also use, so its
    // counts are read only on the Narwhal workload.
    const bool narwhal = w.protocol == Proto::kNarwhal;
    const auto sent = [&](std::uint32_t type) {
      return static_cast<double>(sends_by_type[type]);
    };
    for (const MsgName& m : kHermesMsgs) {
      out.exact(std::string("hermes.msgs.") + m.name, sent(m.type), "msgs");
    }
    for (const MsgName& m : kNarwhalMsgs) {
      out.exact(std::string("protocols.msgs.") + m.name,
                narwhal ? sent(m.type) : 0.0, "msgs");
    }
    out.exact("crypto.partials", sent(HN::kMsgTrsPartial), "count");
    out.exact("hermes.fallback_offer_share",
              sent(HN::kMsgFallbackOffer) /
                  static_cast<double>(oc.total.messages_sent),
              "ratio");
    out.exact("hermes.data_redundancy",
              sent(HN::kMsgData) /
                  (oc.attempted * static_cast<double>(oc.live_honest - 1)),
              "ratio");

    spans.open("probes");
    if (shared != nullptr) {
      probe_hermes_layers(*graph, *shared, spans, out);
    } else {
      zero_hermes_layers(out);
    }
    spans.close();

    std::FILE* f = std::fopen(opt.trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opt.trace_path.c_str());
      return 1;
    }
    spans.write_chrome_trace(f);
    std::fclose(f);
  }

  out.print(opt);
  return 0;
}
