#include "fuzz/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <unordered_set>

#include "support/rng.hpp"

namespace hermes::fuzz {

using protocols::Behavior;

bool Scenario::has_front_runner() const {
  return std::any_of(byzantine.begin(), byzantine.end(), [](const auto& b) {
    return b.behavior == Behavior::kFrontRunner;
  });
}

bool Scenario::has_rejoin() const {
  return std::any_of(churn.begin(), churn.end(),
                     [](const ChurnEvent& ev) { return ev.rejoin; });
}

bool Scenario::benign() const {
  // Fee-priority eviction pressure is not the benign regime: an evicted
  // body legitimately never reaches full coverage.
  return byzantine.empty() && !transit_faults && drop_probability == 0.0 &&
         churn.empty() && partitions.empty() && link_flaps.empty() &&
         stragglers.empty() && mempool_capacity == 0;
}

std::size_t Scenario::max_concurrent_crashes() const {
  std::set<net::NodeId> down;
  std::size_t peak = 0;
  for (const ChurnEvent& ev : churn) {  // kept sorted by at_ms
    for (net::NodeId v : ev.nodes) {
      if (ev.recover) {
        down.erase(v);
      } else {
        down.insert(v);
      }
    }
    peak = std::max(peak, down.size());
  }
  return peak;
}

Scenario generate_scenario(std::uint64_t seed, bool extended) {
  Scenario s;
  s.seed = seed;
  Rng rng(seed ^ 0x5ce7a51a9f22ULL);

  // Topology: small worlds keep a fuzz batch fast while still exercising
  // multi-layer overlays (the generator is re-ranged, not re-coded, for
  // nightly large-N sweeps).
  s.nodes = 12 + rng.uniform_u64(37);  // 12..48
  s.f = (s.nodes >= 20 && rng.bernoulli(0.35)) ? 2 : 1;
  s.k = 2 + rng.uniform_u64(3);  // 2..4
  s.min_degree = std::max<std::size_t>(s.f + 2, 4 + rng.uniform_u64(3));
  s.connectivity = 2;
  s.locality_bias = rng.uniform_real(0.3, 0.7);
  s.protocol = rng.bernoulli(0.8) ? ProtocolKind::kHermes : ProtocolKind::kGossip;

  // Byzantine assignment. The honest floor keeps a 2f+1-honest committee
  // pickable plus sender slack, matching the paper's system model.
  if (rng.bernoulli(0.55)) {
    std::size_t want = static_cast<std::size_t>(
        rng.uniform_real(0.05, 0.25) * static_cast<double>(s.nodes));
    const std::size_t honest_floor = 3 * s.f + 3;
    const std::size_t cap = s.nodes > honest_floor ? s.nodes - honest_floor : 0;
    want = std::min(want, cap);
    for (std::size_t idx : rng.sample_indices(s.nodes, want)) {
      ByzAssignment b;
      b.node = static_cast<net::NodeId>(idx);
      b.behavior =
          rng.bernoulli(0.6) ? Behavior::kDropper : Behavior::kFrontRunner;
      s.byzantine.push_back(b);
    }
    std::sort(s.byzantine.begin(), s.byzantine.end(),
              [](const auto& a, const auto& b) { return a.node < b.node; });
    if (s.has_front_runner()) s.blind_blast = rng.bernoulli(0.3);
    if (!s.byzantine.empty()) s.transit_faults = rng.bernoulli(0.2);
  }

  s.drop_probability = rng.bernoulli(0.35) ? rng.uniform_real(0.01, 0.12) : 0.0;
  s.jitter_stddev_ms = rng.bernoulli(0.4) ? rng.uniform_real(1.0, 20.0) : 0.0;

  std::unordered_set<net::NodeId> byz_set;
  for (const auto& b : s.byzantine) byz_set.insert(b.node);
  std::vector<net::NodeId> honest;
  for (net::NodeId v = 0; v < s.nodes; ++v) {
    if (byz_set.count(v) == 0) honest.push_back(v);
  }

  if (s.hermes()) {
    // Committee: 3f+1 members, at most f Byzantine (system model bound).
    const std::size_t committee_size = 3 * s.f + 1;
    const std::size_t byz_members = s.byzantine.empty()
                                        ? 0
                                        : rng.uniform_u64(std::min(
                                              s.f, s.byzantine.size()) + 1);
    for (std::size_t idx : rng.sample_indices(s.byzantine.size(), byz_members)) {
      s.committee.push_back(s.byzantine[idx].node);
    }
    for (std::size_t idx :
         rng.sample_indices(honest.size(), committee_size - byz_members)) {
      s.committee.push_back(honest[idx]);
    }
    rng.shuffle(s.committee);

    static constexpr double kDelays[] = {400.0, 800.0, 2000.0, 3000.0};
    s.fallback_delay_ms = kDelays[rng.uniform_u64(4)];
    s.enable_fallback = rng.bernoulli(0.85);
    s.enable_acks = rng.bernoulli(0.2);
    // Route-relayed injection survives only <= f Byzantine relays (f+1
    // disjoint paths), so it is sampled only inside that bound.
    s.direct_injection = s.byzantine.size() > s.f || rng.bernoulli(0.8);
    // Drawn and ignored: this was the annealing worker count, and every
    // later draw, hence every seed's scenario, stays where it was.
    rng.uniform_u64(5);
  }

  // Injection schedule: honest senders only (a Byzantine "client" is the
  // front-runner path, modelled separately).
  const std::size_t n_inject = 1 + rng.uniform_u64(5);
  double t = 20.0 + rng.uniform_real(0.0, 150.0);
  std::unordered_set<net::NodeId> senders;
  for (std::size_t i = 0; i < n_inject; ++i) {
    Injection inj;
    inj.at_ms = t;
    t += rng.uniform_real(150.0, 700.0);
    inj.sender =
        honest[static_cast<std::size_t>(rng.uniform_u64(honest.size()))];
    if (s.hermes() && rng.bernoulli(0.15)) {
      inj.batch_size = 3 + static_cast<std::uint32_t>(rng.uniform_u64(4));
    }
    senders.insert(inj.sender);
    s.injections.push_back(inj);
  }
  const double last_inject = s.injections.back().at_ms;

  // Churn: crash (and maybe recover) up to f nodes, optionally followed by
  // a view change. Committee members and senders are exempt so the
  // coverage oracle stays decidable; committee churn has dedicated unit
  // tests.
  if (s.hermes() && rng.bernoulli(0.35)) {
    std::unordered_set<net::NodeId> committee_set(s.committee.begin(),
                                                  s.committee.end());
    std::vector<net::NodeId> candidates;
    for (net::NodeId v = 0; v < s.nodes; ++v) {
      if (committee_set.count(v) == 0 && senders.count(v) == 0) {
        candidates.push_back(v);
      }
    }
    const std::size_t count = 1 + rng.uniform_u64(s.f);
    if (candidates.size() >= count) {
      ChurnEvent crash;
      crash.at_ms = rng.uniform_real(100.0, last_inject + 800.0);
      for (std::size_t idx : rng.sample_indices(candidates.size(), count)) {
        crash.nodes.push_back(candidates[idx]);
      }
      std::sort(crash.nodes.begin(), crash.nodes.end());
      crash.advance_epoch = rng.bernoulli(0.5);
      crash.epoch_seed = rng.next_u64();
      const bool recover = rng.bernoulli(0.5);
      const double recover_at = crash.at_ms + rng.uniform_real(800.0, 3000.0);
      // At most one view change per scenario: a certificate stamped two
      // generations back is dropped as stale, which would make coverage
      // undecidable (the invariant suite also skips that regime).
      const bool crash_advanced = crash.advance_epoch;
      s.churn.push_back(std::move(crash));
      if (recover) {
        ChurnEvent rec;
        rec.at_ms = recover_at;
        rec.recover = true;
        rec.nodes = s.churn.back().nodes;
        rec.advance_epoch = !crash_advanced && rng.bernoulli(0.3);
        rec.epoch_seed = rng.next_u64();
        s.churn.push_back(std::move(rec));
      }
    }
  }

  if (rng.bernoulli(0.22)) {
    PartitionWindow pw;
    pw.start_ms = rng.uniform_real(0.0, 1000.0);
    pw.end_ms = pw.start_ms + rng.uniform_real(400.0, 2500.0);
    pw.assign_seed = rng.next_u64();
    s.partitions.push_back(pw);
  }

  const bool messy = !s.byzantine.empty() || s.transit_faults ||
                     s.drop_probability > 0.0 || !s.churn.empty() ||
                     !s.partitions.empty();
  s.drain_ms = messy ? 12000.0 + rng.uniform_real(0.0, 4000.0) : 6000.0;
  if (!extended) return s;

  // --- extended fault modes. Every draw below comes strictly after every
  // legacy draw, so extended=false replays the historical corpus exactly.
  if (rng.bernoulli(0.25)) {
    const std::size_t n_flaps = 1 + rng.uniform_u64(3);  // 1..3 windows
    for (std::size_t i = 0; i < n_flaps; ++i) {
      LinkFlap flap;
      flap.a = static_cast<net::NodeId>(rng.uniform_u64(s.nodes));
      flap.b = static_cast<net::NodeId>(rng.uniform_u64(s.nodes - 1));
      if (flap.b >= flap.a) ++flap.b;  // distinct endpoints
      flap.start_ms = rng.uniform_real(50.0, last_inject + 1000.0);
      flap.end_ms = flap.start_ms + rng.uniform_real(200.0, 1500.0);
      s.link_flaps.push_back(flap);
    }
  }
  if (rng.bernoulli(0.25)) {
    const std::size_t n_strag = 1 + rng.uniform_u64(2);  // 1..2 nodes
    for (std::size_t idx : rng.sample_indices(s.nodes, n_strag)) {
      Straggler st;
      st.node = static_cast<net::NodeId>(idx);
      // sim::kProcessingDelayMs is tiny (0.05 ms), so meaningful
      // straggling needs a large multiplier.
      st.multiplier = rng.uniform_real(20.0, 400.0);
      s.stragglers.push_back(st);
    }
    std::sort(s.stragglers.begin(), s.stragglers.end(),
              [](const auto& a, const auto& b) { return a.node < b.node; });
  }
  // Self-healing rides the fallback path (gap pulls are FallbackRequests),
  // so it is only sampled when the fallback is on. Recovery needs room:
  // detection (silence strikes) + repair + pulls stretch the tail.
  if (s.hermes() && s.enable_fallback && rng.bernoulli(0.5)) {
    s.self_healing = true;
    s.drain_ms = std::max(s.drain_ms, 10000.0 + rng.uniform_real(0.0, 2000.0));
  }
  if (!s.link_flaps.empty() || !s.stragglers.empty()) {
    s.drain_ms = std::max(s.drain_ms, 12000.0 + rng.uniform_real(0.0, 2000.0));
  }
  // Sustained load: stream a Poisson workload over the run, half the time
  // under a mempool bound tight enough to force fee evictions. Drawn last
  // so earlier extended corpora replay unchanged up to this feature.
  if (rng.bernoulli(0.3)) {
    s.load_rate_hz = 10.0 + rng.uniform_real(0.0, 40.0);  // 10..50 tx/s
    s.load_duration_ms = 800.0 + rng.uniform_real(0.0, 1600.0);
    s.load_start_ms = 50.0 + rng.uniform_real(0.0, 200.0);
    s.load_seed = rng.next_u64();
    if (rng.bernoulli(0.5)) {
      s.mempool_capacity = 8 + rng.uniform_u64(57);  // 8..64 resident txs
    }
    // Capacity pressure is a non-benign regime (system model: >= 12 s).
    s.drain_ms =
        std::max(s.drain_ms, s.mempool_capacity > 0 ? 12000.0 : 10000.0);
  }
  // Join/leave storms (churn-resilience layer). Drawn after every earlier
  // extended feature so pre-storm corpora replay unchanged. Storms ride the
  // self-healing stack and replace the legacy one-shot churn (sequential
  // waves keep the concurrent-crash peak within f, so the invariant
  // regime gates stay decidable): each wave is a mass departure of up to f
  // nodes followed by a flash-crowd rejoin — every victim re-enters at
  // once through the join admission protocol.
  if (s.hermes() && s.self_healing && s.churn.empty() && rng.bernoulli(0.4)) {
    std::unordered_set<net::NodeId> committee_set(s.committee.begin(),
                                                  s.committee.end());
    std::vector<net::NodeId> candidates;
    for (net::NodeId v = 0; v < s.nodes; ++v) {
      if (committee_set.count(v) == 0 && senders.count(v) == 0) {
        candidates.push_back(v);
      }
    }
    if (candidates.size() >= s.f) {
      s.epoch_pipeline = rng.bernoulli(0.7);
      const std::size_t n_waves = 1 + rng.uniform_u64(3);  // 1..3 waves
      double wt = last_inject + 200.0 + rng.uniform_real(0.0, 400.0);
      for (std::size_t w = 0; w < n_waves; ++w) {
        const std::size_t count =
            std::min(candidates.size(), 1 + rng.uniform_u64(s.f));
        ChurnEvent crash;
        crash.at_ms = wt;
        for (std::size_t idx : rng.sample_indices(candidates.size(), count)) {
          crash.nodes.push_back(candidates[idx]);
        }
        std::sort(crash.nodes.begin(), crash.nodes.end());
        ChurnEvent back;
        // Leave room for silence detection (strikes x ticks) before the
        // flash crowd returns.
        back.at_ms = wt + rng.uniform_real(1500.0, 2800.0);
        back.recover = true;
        back.rejoin = true;
        back.nodes = crash.nodes;
        wt = back.at_ms + rng.uniform_real(400.0, 900.0);
        s.churn.push_back(std::move(crash));
        s.churn.push_back(std::move(back));
      }
      // Admission gossip + warm rebuilds + catch-up pulls stretch the tail.
      s.drain_ms = std::max(s.drain_ms, 14000.0 + rng.uniform_real(0.0, 2000.0));
    }
  }
  return s;
}

namespace {

const char* behavior_name(Behavior b) {
  switch (b) {
    case Behavior::kHonest:
      return "honest";
    case Behavior::kDropper:
      return "dropper";
    case Behavior::kFrontRunner:
      return "frontrunner";
  }
  return "?";
}

std::optional<Behavior> behavior_from(const std::string& name) {
  if (name == "honest") return Behavior::kHonest;
  if (name == "dropper") return Behavior::kDropper;
  if (name == "frontrunner") return Behavior::kFrontRunner;
  return std::nullopt;
}

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Splits "key=value"; returns false when '=' is missing.
bool split_kv(const std::string& token, std::string& key, std::string& value) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

}  // namespace

std::string describe(const Scenario& s) {
  std::ostringstream out;
  out << "seed=" << s.seed << " n=" << s.nodes << " f=" << s.f << " k=" << s.k
      << " " << (s.hermes() ? "hermes" : "gossip");
  if (!s.byzantine.empty()) {
    std::size_t droppers = 0;
    std::size_t front = 0;
    for (const auto& b : s.byzantine) {
      (b.behavior == Behavior::kDropper ? droppers : front) += 1;
    }
    out << " byz=" << s.byzantine.size() << "(d" << droppers << "/fr" << front
        << ")";
  }
  if (s.drop_probability > 0.0) out << " drop=" << s.drop_probability;
  if (s.jitter_stddev_ms > 0.0) out << " jitter=" << s.jitter_stddev_ms;
  if (s.transit_faults) out << " transit";
  if (s.blind_blast) out << " blast";
  out << " inj=" << s.injections.size();
  if (!s.churn.empty()) out << " churn=" << s.churn.size();
  if (!s.partitions.empty()) out << " part=" << s.partitions.size();
  if (!s.link_flaps.empty()) out << " flaps=" << s.link_flaps.size();
  if (!s.stragglers.empty()) out << " strag=" << s.stragglers.size();
  if (s.self_healing) out << " healing";
  if (s.has_rejoin()) out << " join";
  if (s.epoch_pipeline) out << " pipeline";
  if (s.has_load()) out << " load=" << s.load_rate_hz << "hz";
  if (s.mempool_capacity > 0) out << " cap=" << s.mempool_capacity;
  if (s.hermes() && !s.enable_fallback) out << " nofallback";
  out << " drain=" << s.drain_ms;
  return out.str();
}

std::string serialize(const Scenario& s) {
  std::ostringstream out;
  out << "hermes-fuzz-scenario v1\n";
  out << "seed=" << s.seed << "\n";
  out << "nodes=" << s.nodes << "\n";
  out << "f=" << s.f << "\n";
  out << "k=" << s.k << "\n";
  out << "min_degree=" << s.min_degree << "\n";
  out << "connectivity=" << s.connectivity << "\n";
  out << "locality_bias=" << fmt_double(s.locality_bias) << "\n";
  out << "protocol=" << (s.hermes() ? "hermes" : "gossip") << "\n";
  out << "blind_blast=" << (s.blind_blast ? 1 : 0) << "\n";
  out << "transit_faults=" << (s.transit_faults ? 1 : 0) << "\n";
  out << "drop_probability=" << fmt_double(s.drop_probability) << "\n";
  out << "jitter_stddev_ms=" << fmt_double(s.jitter_stddev_ms) << "\n";
  out << "fallback_delay_ms=" << fmt_double(s.fallback_delay_ms) << "\n";
  out << "enable_fallback=" << (s.enable_fallback ? 1 : 0) << "\n";
  out << "enable_acks=" << (s.enable_acks ? 1 : 0) << "\n";
  out << "direct_injection=" << (s.direct_injection ? 1 : 0) << "\n";
  out << "self_healing=" << (s.self_healing ? 1 : 0) << "\n";
  // The pipeline key is emitted only when on, so historical corpus files
  // round-trip byte-identically.
  if (s.epoch_pipeline) out << "epoch_pipeline=1\n";
  out << "drain_ms=" << fmt_double(s.drain_ms) << "\n";
  // Load keys are emitted only when the feature is on, so historical
  // corpus files round-trip byte-identically.
  if (s.has_load()) {
    out << "load_rate_hz=" << fmt_double(s.load_rate_hz) << "\n";
    out << "load_duration_ms=" << fmt_double(s.load_duration_ms) << "\n";
    out << "load_start_ms=" << fmt_double(s.load_start_ms) << "\n";
    out << "load_seed=" << s.load_seed << "\n";
  }
  if (s.mempool_capacity > 0) {
    out << "mempool_capacity=" << s.mempool_capacity << "\n";
  }
  if (!s.committee.empty()) {
    out << "committee=";
    for (std::size_t i = 0; i < s.committee.size(); ++i) {
      out << (i ? "," : "") << s.committee[i];
    }
    out << "\n";
  }
  if (!s.byzantine.empty()) {
    out << "byz=";
    for (std::size_t i = 0; i < s.byzantine.size(); ++i) {
      out << (i ? "," : "") << s.byzantine[i].node << ":"
          << behavior_name(s.byzantine[i].behavior);
    }
    out << "\n";
  }
  for (const Injection& inj : s.injections) {
    out << "inject at=" << fmt_double(inj.at_ms) << " sender=" << inj.sender
        << " batch=" << inj.batch_size << "\n";
  }
  for (const ChurnEvent& ev : s.churn) {
    out << "churn at=" << fmt_double(ev.at_ms)
        << " action=" << (ev.recover ? "recover" : "crash") << " nodes=";
    for (std::size_t i = 0; i < ev.nodes.size(); ++i) {
      out << (i ? "|" : "") << ev.nodes[i];
    }
    out << " epoch=" << (ev.advance_epoch ? 1 : 0)
        << " epoch_seed=" << ev.epoch_seed;
    if (ev.rejoin) out << " rejoin=1";
    out << "\n";
  }
  for (const PartitionWindow& pw : s.partitions) {
    out << "partition start=" << fmt_double(pw.start_ms)
        << " end=" << fmt_double(pw.end_ms)
        << " assign_seed=" << pw.assign_seed << "\n";
  }
  for (const LinkFlap& flap : s.link_flaps) {
    out << "flap a=" << flap.a << " b=" << flap.b
        << " start=" << fmt_double(flap.start_ms)
        << " end=" << fmt_double(flap.end_ms) << "\n";
  }
  for (const Straggler& st : s.stragglers) {
    out << "straggler node=" << st.node
        << " mult=" << fmt_double(st.multiplier) << "\n";
  }
  return out.str();
}

std::optional<Scenario> parse_scenario(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "hermes-fuzz-scenario v1") {
    return std::nullopt;
  }
  Scenario s;
  s.injections.clear();
  bool ok = true;
  // Plain decimal digits, at most `max`: a value that does not fit its
  // field is rejected, never narrowed or saturated.
  const auto to_u64 =
      [&ok](const std::string& v,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    std::uint64_t out = 0;
    const char* last = v.data() + v.size();
    const auto [end, ec] = std::from_chars(v.data(), last, out);
    if (ec != std::errc() || end != last || out > max) ok = false;
    return out;
  };
  const auto to_id = [&to_u64](const std::string& v) {
    return static_cast<net::NodeId>(
        to_u64(v, std::numeric_limits<net::NodeId>::max()));
  };
  const auto to_flag = [&to_u64](const std::string& v) {
    return to_u64(v, 1) != 0;
  };
  // Every real-valued field is finite and non-negative, as the engine
  // aborts on a negative time or delay; probabilities pass max = 1, where
  // the runner would clamp them, and times kMaxScenarioTimeMs.
  const auto to_double =
      [&ok](const std::string& v,
            double max = std::numeric_limits<double>::max()) -> double {
    char* end = nullptr;
    const double out = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0') ok = false;
    if (!(out >= 0.0 && out <= max)) ok = false;
    return out;
  };
  const auto to_ms = [&to_double](const std::string& v) {
    return to_double(v, kMaxScenarioTimeMs);
  };

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    if (head == "inject") {
      Injection inj;
      std::string token, key, value;
      while (ls >> token) {
        if (!split_kv(token, key, value)) return std::nullopt;
        if (key == "at") inj.at_ms = to_ms(value);
        else if (key == "sender") inj.sender = to_id(value);
        else if (key == "batch") {
          inj.batch_size =
              static_cast<std::uint32_t>(to_u64(value, kMaxScenarioBatch));
        } else return std::nullopt;
      }
      s.injections.push_back(inj);
    } else if (head == "churn") {
      ChurnEvent ev;
      std::string token, key, value;
      while (ls >> token) {
        if (!split_kv(token, key, value)) return std::nullopt;
        if (key == "at") ev.at_ms = to_ms(value);
        else if (key == "action") {
          if (value != "crash" && value != "recover") return std::nullopt;
          ev.recover = value == "recover";
        }
        else if (key == "nodes") {
          for (const std::string& part : split(value, '|')) {
            if (part.empty()) return std::nullopt;
            ev.nodes.push_back(to_id(part));
          }
        } else if (key == "epoch") ev.advance_epoch = to_flag(value);
        else if (key == "epoch_seed") ev.epoch_seed = to_u64(value);
        else if (key == "rejoin") ev.rejoin = to_flag(value);
        else return std::nullopt;
      }
      // serialize cannot write an event with no nodes.
      if (ev.nodes.empty()) return std::nullopt;
      s.churn.push_back(std::move(ev));
    } else if (head == "partition") {
      PartitionWindow pw;
      std::string token, key, value;
      while (ls >> token) {
        if (!split_kv(token, key, value)) return std::nullopt;
        if (key == "start") pw.start_ms = to_ms(value);
        else if (key == "end") pw.end_ms = to_ms(value);
        else if (key == "assign_seed") pw.assign_seed = to_u64(value);
        else return std::nullopt;
      }
      // The runner heals at end and splits at start, so a reversed window
      // would split the network for the rest of the run.
      if (pw.end_ms <= pw.start_ms) return std::nullopt;
      s.partitions.push_back(pw);
    } else if (head == "flap") {
      LinkFlap flap;
      std::string token, key, value;
      while (ls >> token) {
        if (!split_kv(token, key, value)) return std::nullopt;
        if (key == "a") flap.a = to_id(value);
        else if (key == "b") flap.b = to_id(value);
        else if (key == "start") flap.start_ms = to_ms(value);
        else if (key == "end") flap.end_ms = to_ms(value);
        else return std::nullopt;
      }
      // The runner skips a flap of no link or of no time.
      if (flap.a == flap.b || flap.end_ms <= flap.start_ms) return std::nullopt;
      s.link_flaps.push_back(flap);
    } else if (head == "straggler") {
      Straggler st;
      std::string token, key, value;
      while (ls >> token) {
        if (!split_kv(token, key, value)) return std::nullopt;
        if (key == "node") st.node = to_id(value);
        else if (key == "mult") st.multiplier = to_double(value);
        else return std::nullopt;
      }
      if (st.multiplier == 0.0) return std::nullopt;  // the runner skips it
      s.stragglers.push_back(st);
    } else {
      std::string key, value, rest;
      if (!split_kv(head, key, value) || ls >> rest) return std::nullopt;
      if (key == "seed") s.seed = to_u64(value);
      else if (key == "nodes") s.nodes = to_u64(value, kMaxScenarioNodes);
      else if (key == "f") s.f = to_u64(value, kMaxScenarioF);
      else if (key == "k") s.k = to_u64(value, kMaxScenarioOverlays);
      else if (key == "min_degree") s.min_degree = to_u64(value, kMaxScenarioDegree);
      else if (key == "connectivity") s.connectivity = to_u64(value, kMaxScenarioDegree);
      else if (key == "locality_bias") s.locality_bias = to_double(value, 1.0);
      else if (key == "protocol") {
        if (value == "hermes") s.protocol = ProtocolKind::kHermes;
        else if (value == "gossip") s.protocol = ProtocolKind::kGossip;
        else return std::nullopt;
      } else if (key == "blind_blast") s.blind_blast = to_flag(value);
      else if (key == "transit_faults") s.transit_faults = to_flag(value);
      else if (key == "drop_probability") s.drop_probability = to_double(value, 1.0);
      else if (key == "jitter_stddev_ms") s.jitter_stddev_ms = to_ms(value);
      else if (key == "fallback_delay_ms") s.fallback_delay_ms = to_ms(value);
      else if (key == "enable_fallback") s.enable_fallback = to_flag(value);
      else if (key == "enable_acks") s.enable_acks = to_flag(value);
      else if (key == "direct_injection") s.direct_injection = to_flag(value);
      else if (key == "self_healing") s.self_healing = to_flag(value);
      else if (key == "epoch_pipeline") s.epoch_pipeline = to_flag(value);
      else if (key == "drain_ms") s.drain_ms = to_ms(value);
      else if (key == "load_rate_hz") s.load_rate_hz = to_double(value);
      else if (key == "load_duration_ms") s.load_duration_ms = to_ms(value);
      else if (key == "load_start_ms") s.load_start_ms = to_ms(value);
      else if (key == "load_seed") s.load_seed = to_u64(value);
      else if (key == "mempool_capacity") s.mempool_capacity = to_u64(value);
      else if (key == "committee") {
        for (const std::string& part : split(value, ',')) {
          if (part.empty()) return std::nullopt;
          s.committee.push_back(to_id(part));
        }
      } else if (key == "byz") {
        for (const std::string& part : split(value, ',')) {
          const auto bits = split(part, ':');
          if (bits.size() != 2) return std::nullopt;
          const auto behavior = behavior_from(bits[1]);
          if (!behavior) return std::nullopt;
          ByzAssignment b;
          b.node = to_id(bits[0]);
          b.behavior = *behavior;
          s.byzantine.push_back(b);
        }
      } else {
        return std::nullopt;
      }
    }
    if (!ok) return std::nullopt;
  }
  // Well-formed lines can still describe a scenario the runner cannot
  // build (no topology below two nodes, no committee at f = 0, no overlay
  // set at k = 0, more load than its bound) or would run differently than
  // written (it skips node ids past the last node).
  if (s.nodes < 2 || s.k == 0 || s.f == 0 ||
      s.load_rate_hz * s.load_duration_ms / 1000.0 > kMaxScenarioLoadTxs) {
    return std::nullopt;
  }
  // Load keys are written only with a positive rate, so without one they
  // would not survive a round trip.
  if (!s.has_load() && (s.load_duration_ms > 0.0 || s.load_start_ms > 0.0 ||
                        s.load_seed != 0)) {
    return std::nullopt;
  }
  std::vector<net::NodeId> ids = s.committee;
  for (const ByzAssignment& b : s.byzantine) ids.push_back(b.node);
  for (const Injection& inj : s.injections) ids.push_back(inj.sender);
  for (const ChurnEvent& ev : s.churn) {
    ids.insert(ids.end(), ev.nodes.begin(), ev.nodes.end());
  }
  for (const LinkFlap& flap : s.link_flaps) {
    ids.push_back(flap.a);
    ids.push_back(flap.b);
  }
  for (const Straggler& st : s.stragglers) ids.push_back(st.node);
  for (const net::NodeId v : ids) {
    if (v >= s.nodes) return std::nullopt;
  }
  // HERMES's committee is 3f+1 distinct members. Without a committee line
  // pick_committee draws one with at most f Byzantine members, which takes
  // 3f+1 nodes, 2f+1 of them honest (a node's last byz entry counts).
  if (s.hermes()) {
    if ((s.nodes - 1) / 3 < s.f) return std::nullopt;  // nodes < 3f+1
    std::map<net::NodeId, Behavior> role;
    for (const ByzAssignment& b : s.byzantine) role[b.node] = b.behavior;
    std::size_t honest = s.nodes;
    for (const auto& [v, b] : role) {
      if (b != Behavior::kHonest) --honest;
    }
    const std::set<net::NodeId> members(s.committee.begin(), s.committee.end());
    if (s.committee.empty() ? honest < 2 * s.f + 1
                            : s.committee.size() != 3 * s.f + 1 ||
                                  members.size() != s.committee.size()) {
      return std::nullopt;
    }
  }
  return s;
}

}  // namespace hermes::fuzz
