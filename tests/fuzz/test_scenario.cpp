// Scenario generator properties: determinism, serialization round-trip,
// and the structural constraints every sampled experiment must satisfy
// (system-model bounds the invariant suite depends on).
#include "fuzz/scenario.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace hermes::fuzz {
namespace {

using protocols::Behavior;

TEST(Scenario, GenerationIsDeterministic) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 9001ULL, 0xdeadbeefULL}) {
    const Scenario a = generate_scenario(seed);
    const Scenario b = generate_scenario(seed);
    EXPECT_EQ(serialize(a), serialize(b)) << "seed " << seed;
  }
}

TEST(Scenario, DistinctSeedsDiffer) {
  std::unordered_set<std::string> seen;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    seen.insert(serialize(generate_scenario(seed)));
  }
  // A couple of collisions would be astronomically unlikely; any collision
  // signals the seed is not actually feeding the sampler.
  EXPECT_EQ(seen.size(), 50u);
}

TEST(Scenario, SerializeParseRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Scenario s = generate_scenario(seed);
    const std::string text = serialize(s);
    const auto parsed = parse_scenario(text);
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    EXPECT_EQ(serialize(*parsed), text) << "seed " << seed;
  }
}

TEST(Scenario, ParseRejectsMalformedInput) {
  EXPECT_FALSE(parse_scenario("").has_value());
  EXPECT_FALSE(parse_scenario("not-a-scenario\nseed=1\n").has_value());
  EXPECT_FALSE(
      parse_scenario("hermes-fuzz-scenario v1\nnodes=abc\n").has_value());
  EXPECT_FALSE(
      parse_scenario("hermes-fuzz-scenario v1\nnodes=12abc\n").has_value());
  EXPECT_FALSE(
      parse_scenario("hermes-fuzz-scenario v1\nunknown_key=3\n").has_value());
  // Not a key: self-healing alone admits rejoining nodes.
  EXPECT_FALSE(parse_scenario("hermes-fuzz-scenario v1\njoin_admission=1\n")
                   .has_value());
  EXPECT_FALSE(parse_scenario("hermes-fuzz-scenario v1\nbyz=5:weird\n")
                   .has_value());

  // Well-formed lines describing a scenario the runner cannot build, or
  // would run differently than written (it skips node ids past the last
  // node). The header plus nodes=10 alone is a valid scenario.
  const std::string head = "hermes-fuzz-scenario v1\nnodes=10\n";
  ASSERT_TRUE(parse_scenario(head).has_value());
  for (const char* body : {
           "nodes=1\n",                               // no topology
           "k=0\n",                                   // no overlay set
           "f=0\n",                                   // no committee
           "committee=0,1,2,10\n",                    // ids are 0..9
           "byz=10:dropper\n",
           "inject at=5 sender=10 batch=0\n",
           "churn at=5 action=crash nodes=3|10 epoch=0 epoch_seed=1\n",
           "flap a=10 b=2 start=1 end=2\n",
           "flap a=2 b=10 start=1 end=2\n",
           "straggler node=10 mult=2\n",
           // Times before the start or never: the engine aborts on an
           // event in the past or a negative delay.
           "inject at=-5 sender=2 batch=0\n",
           "partition start=-1 end=20 assign_seed=3\n",
           "partition start=1 end=-20 assign_seed=3\n",
           "partition start=1 end=nan assign_seed=3\n",
           "churn at=-5 action=crash nodes=3 epoch=0 epoch_seed=1\n",
           "churn at=inf action=crash nodes=3 epoch=0 epoch_seed=1\n",
           "flap a=1 b=2 start=-1 end=2\n",
           "flap a=1 b=2 start=1 end=inf\n",
           "fallback_delay_ms=-1\n",
           "drain_ms=-1\n",
           "drain_ms=inf\n",
           "load_rate_hz=-5\nload_duration_ms=100\n",
           "load_rate_hz=5\nload_duration_ms=-100\n",
           "load_rate_hz=5\nload_duration_ms=100\nload_start_ms=nan\n",
           // No committee the runner can use: too few nodes to draw 3f+1,
           // too few honest ones to draw 2f+1, or not 3f+1 distinct ids.
           "f=6\nnodes=16\n",
           "nodes=5\nbyz=0:dropper,1:dropper,2:frontrunner\n",
           "committee=0,1,2,3,4\n",
           "committee=0,1,2\n",
           "committee=0,1,2,2\n",
           // Values the runner would clamp or skip.
           "drop_probability=1.5\n",
           "drop_probability=-0.1\n",
           "locality_bias=2\n",
           "locality_bias=-0.5\n",
           "jitter_stddev_ms=-3\n",
           "straggler node=1 mult=0\n",
           "straggler node=1 mult=-2\n",
       }) {
    EXPECT_FALSE(parse_scenario(head + body).has_value()) << body;
  }
}

// Counts the runner builds from stop at their named bounds, and an id or
// size that does not fit its field is rejected instead of narrowed: before
// these checks k = 2^62 parsed and then aborted the run in
// vector::reserve, connectivity = 2^62 stalled the topology's ring chords,
// f = 253 aborted the first batch's erasure code, and sender = 2^32 + 2
// replayed as sender = 2.
TEST(Scenario, ParseRejectsValuesPastTheirBoundsOrTypes) {
  const std::string head = "hermes-fuzz-scenario v1\nnodes=10\n";
  for (const char* body : {
           "k=4611686018427387904\n",
           "nodes=4611686018427387904\n",
           "nodes=100001\n",
           "k=65\n",
           "f=65\nnodes=400\n",
           "min_degree=65\n",
           "connectivity=65\n",
           "connectivity=4611686018427387904\n",
           "inject at=5 sender=2 batch=1025\n",
           "inject at=5 sender=2 batch=4294967299\n",
           "load_rate_hz=1000000\nload_duration_ms=1000000\n",
           // Ids past NodeId: each would narrow to an id below 10.
           "inject at=5 sender=4294967298 batch=0\n",
           "committee=0,1,2,4294967299\n",
           "byz=4294967298:dropper\n",
           "churn at=5 action=crash nodes=4294967299 epoch=0 epoch_seed=1\n",
           "flap a=4294967297 b=2 start=1 end=2\n",
           "straggler node=4294967297 mult=2\n",
           // Past uint64, signed, or a flag other than 0 and 1.
           "seed=18446744073709551616\n",
           "seed=-1\n",
           "seed=+5\n",
           "enable_acks=2\n",
           "churn at=5 action=crash nodes=3 epoch=2 epoch_seed=1\n",
           // Not an action, a second key on one line, and what serialize
           // cannot write back: load keys without a rate, a churn event
           // with no nodes.
           "churn at=5 action=recovr nodes=3 epoch=0 epoch_seed=1\n",
           "k=3 f=2\n",
           "load_duration_ms=100\n",
           "churn at=5 action=crash epoch=1 epoch_seed=1\n",
           // Windows the runner would not run as written: a reversed
           // partition never heals, and a flap of no link or of no time
           // is skipped.
           "partition start=500 end=100 assign_seed=7\n",
           "flap a=2 b=2 start=1 end=2\n",
           "flap a=1 b=2 start=2 end=2\n",
           // Times past kMaxScenarioTimeMs, each of which a self-healing
           // run would tick through.
           "drain_ms=1000000000\n",
           "drain_ms=1000000.5\n",
           "fallback_delay_ms=1000001\n",
           "jitter_stddev_ms=1000001\n",
           "inject at=1000001 sender=2 batch=0\n",
           "churn at=1000001 action=crash nodes=3 epoch=0 epoch_seed=1\n",
           "partition start=5 end=1000001 assign_seed=7\n",
           "partition start=1000001 end=1000002 assign_seed=7\n",
           "flap a=1 b=2 start=1 end=1000001\n",
           "flap a=1 b=2 start=1000001 end=1000002\n",
           "load_rate_hz=0.001\nload_duration_ms=1000001\n",
           "load_rate_hz=1\nload_duration_ms=100\nload_start_ms=1000001\n",
       }) {
    EXPECT_FALSE(parse_scenario(head + body).has_value()) << body;
  }
  // Each bound itself still parses.
  for (const char* body : {
           "nodes=100000\n",
           "k=64\n",
           "f=64\nnodes=193\n",
           "min_degree=64\nconnectivity=64\n",
           "inject at=5 sender=2 batch=1024\n",
           "load_rate_hz=100\nload_duration_ms=1000000\n",
           "drain_ms=1000000\nfallback_delay_ms=1000000\n",
           "jitter_stddev_ms=1000000\n",
           "inject at=1000000 sender=2 batch=0\n",
           "churn at=1000000 action=crash nodes=3 epoch=0 epoch_seed=1\n",
           "partition start=999999 end=1000000 assign_seed=7\n",
           "flap a=1 b=2 start=999999 end=1000000\n",
           "load_rate_hz=1\nload_duration_ms=100\nload_start_ms=1000000\n",
       }) {
    EXPECT_TRUE(parse_scenario(head + body).has_value()) << body;
  }
}

// Decoder harness: every truncation and every bit flip of one serialized
// extended scenario with load, rejoin churn, a partition, flaps,
// stragglers and a batch injection. Each input either fails to parse or
// parses to a scenario that survives a round trip unchanged and holds its
// counts, ids and times within the bounds; none throws.
TEST(ScenarioParserMutation, TruncationsAndBitFlips) {
  Scenario s = generate_scenario(3);
  ASSERT_TRUE(s.hermes() && s.has_load() && !s.link_flaps.empty() &&
              !s.stragglers.empty());
  s.injections.push_back(Injection{600.0, 8, 4});
  s.churn.push_back(ChurnEvent{5000.0, false, {12, 18}, false, 9, false});
  s.churn.push_back(ChurnEvent{7000.0, true, {12, 18}, false, 10, true});
  s.partitions.push_back(PartitionWindow{100.0, 900.0, 77});
  s.epoch_pipeline = true;
  const std::string text = serialize(s);
  ASSERT_EQ(parse_scenario(text), s);

  std::size_t parsed = 0;
  const auto check = [&parsed](const std::string& input,
                               const std::string& what) {
    std::optional<Scenario> got;
    ASSERT_NO_THROW(got = parse_scenario(input)) << what;
    if (!got) return;
    ++parsed;
    EXPECT_EQ(parse_scenario(serialize(*got)), got) << what;
    EXPECT_LE(got->nodes, kMaxScenarioNodes) << what;
    EXPECT_LE(got->f, kMaxScenarioF) << what;
    EXPECT_LE(got->k, kMaxScenarioOverlays) << what;
    EXPECT_LE(got->min_degree, kMaxScenarioDegree) << what;
    EXPECT_LE(got->connectivity, kMaxScenarioDegree) << what;
    EXPECT_LE(got->load_rate_hz * got->load_duration_ms / 1000.0,
              kMaxScenarioLoadTxs)
        << what;
    std::vector<double> times = {got->drain_ms, got->fallback_delay_ms,
                                 got->jitter_stddev_ms, got->load_duration_ms,
                                 got->load_start_ms};
    for (const Injection& inj : got->injections) times.push_back(inj.at_ms);
    for (const ChurnEvent& ev : got->churn) times.push_back(ev.at_ms);
    for (const PartitionWindow& pw : got->partitions) {
      times.push_back(pw.start_ms);
      times.push_back(pw.end_ms);
    }
    for (const LinkFlap& flap : got->link_flaps) {
      times.push_back(flap.start_ms);
      times.push_back(flap.end_ms);
    }
    for (const double t : times) EXPECT_LE(t, kMaxScenarioTimeMs) << what;
    std::vector<net::NodeId> ids = got->committee;
    for (const ByzAssignment& b : got->byzantine) ids.push_back(b.node);
    for (const Injection& inj : got->injections) {
      EXPECT_LE(inj.batch_size, kMaxScenarioBatch) << what;
      ids.push_back(inj.sender);
    }
    for (const ChurnEvent& ev : got->churn) {
      ids.insert(ids.end(), ev.nodes.begin(), ev.nodes.end());
    }
    for (const LinkFlap& flap : got->link_flaps) {
      ids.push_back(flap.a);
      ids.push_back(flap.b);
    }
    for (const Straggler& st : got->stragglers) ids.push_back(st.node);
    for (const net::NodeId v : ids) EXPECT_LT(v, got->nodes) << what;
  };
  for (std::size_t len = 0; len < text.size(); ++len) {
    check(text.substr(0, len), "truncated to " + std::to_string(len));
  }
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      check(flipped, "byte " + std::to_string(i) + " bit " +
                         std::to_string(bit));
    }
  }
  // Both verdicts occur: about one input in seven parses, most of them
  // truncations past the header and flips of one digit into another.
  EXPECT_GT(parsed, text.size());
  EXPECT_LT(parsed, 2 * text.size());
}

// The ring chords alone make the topology t-connected, so a minimum
// degree below the connectivity still builds.
TEST(Scenario, ParseAcceptsMinDegreeBelowConnectivity) {
  const auto s = parse_scenario(
      "hermes-fuzz-scenario v1\nnodes=10\nmin_degree=1\nconnectivity=2\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->min_degree, 1u);
  EXPECT_EQ(s->connectivity, 2u);
}

TEST(Scenario, SampledScenariosSatisfySystemModel) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Scenario s = generate_scenario(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    EXPECT_GE(s.nodes, 12u);
    EXPECT_LE(s.nodes, 48u);
    EXPECT_GE(s.f, 1u);
    EXPECT_LE(s.f, 2u);
    EXPECT_GE(s.k, 2u);
    EXPECT_LE(s.k, 4u);
    EXPECT_GE(s.min_degree, s.f + 2);

    std::unordered_set<net::NodeId> byz;
    for (const ByzAssignment& b : s.byzantine) {
      EXPECT_LT(b.node, s.nodes);
      EXPECT_NE(b.behavior, Behavior::kHonest);
      EXPECT_TRUE(byz.insert(b.node).second) << "duplicate byz node";
    }
    // Honest floor: 2f+1 honest committee members plus sender slack.
    EXPECT_GE(s.nodes - s.byzantine.size(), 3 * s.f + 3);

    if (s.hermes()) {
      EXPECT_EQ(s.committee.size(), 3 * s.f + 1);
      std::size_t byz_members = 0;
      std::unordered_set<net::NodeId> members;
      for (net::NodeId v : s.committee) {
        EXPECT_LT(v, s.nodes);
        EXPECT_TRUE(members.insert(v).second) << "duplicate committee member";
        if (byz.count(v) != 0) ++byz_members;
      }
      EXPECT_LE(byz_members, s.f);
      if (!s.direct_injection) {
        EXPECT_LE(s.byzantine.size(), s.f);
      }
    } else {
      EXPECT_TRUE(s.committee.empty());
      EXPECT_TRUE(s.churn.empty());
    }

    ASSERT_FALSE(s.injections.empty());
    double prev = 0.0;
    for (const Injection& inj : s.injections) {
      EXPECT_LT(inj.sender, s.nodes);
      EXPECT_EQ(byz.count(inj.sender), 0u) << "Byzantine sender";
      EXPECT_GT(inj.at_ms, prev);
      prev = inj.at_ms;
      if (inj.batch_size != 0) {
        EXPECT_TRUE(s.hermes());
        EXPECT_GE(inj.batch_size, 3u);
        EXPECT_LE(inj.batch_size, 6u);
      }
    }

    EXPECT_LE(s.max_concurrent_crashes(), s.f);
    std::unordered_set<net::NodeId> committee(s.committee.begin(),
                                              s.committee.end());
    std::size_t advances = 0;
    for (const ChurnEvent& ev : s.churn) {
      if (ev.advance_epoch) ++advances;
      for (net::NodeId v : ev.nodes) {
        EXPECT_LT(v, s.nodes);
        EXPECT_EQ(committee.count(v), 0u) << "committee member churned";
      }
    }
    // Two view changes would stale-drop in-flight certificates.
    EXPECT_LE(advances, 1u);

    for (const PartitionWindow& pw : s.partitions) {
      EXPECT_GT(pw.end_ms, pw.start_ms);
    }

    for (const LinkFlap& flap : s.link_flaps) {
      EXPECT_LT(flap.a, s.nodes);
      EXPECT_LT(flap.b, s.nodes);
      EXPECT_NE(flap.a, flap.b);
      EXPECT_GT(flap.end_ms, flap.start_ms);
    }
    for (const Straggler& st : s.stragglers) {
      EXPECT_LT(st.node, s.nodes);
      EXPECT_GT(st.multiplier, 1.0);
    }
    if (s.self_healing) {
      EXPECT_TRUE(s.hermes());
      EXPECT_TRUE(s.enable_fallback);
      EXPECT_GE(s.drain_ms, 10000.0);
    }

    EXPECT_GE(s.drain_ms, 6000.0);
    if (!s.benign()) {
      EXPECT_GE(s.drain_ms, 12000.0);
    }
  }
}

// extended=false must reproduce the historical corpus: no post-v1 fault
// modes, and every legacy field identical to the extended sampling (the
// extended draws only append; they never perturb earlier ones). drain_ms
// is the one exception — extended modes stretch it.
TEST(Scenario, LegacyModeIsAPrefixOfExtended) {
  bool saw_extended_faults = false;
  bool saw_load = false;
  bool saw_storm = false;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario legacy = generate_scenario(seed, false);
    EXPECT_TRUE(legacy.link_flaps.empty());
    EXPECT_TRUE(legacy.stragglers.empty());
    EXPECT_FALSE(legacy.self_healing);
    EXPECT_FALSE(legacy.has_rejoin());
    EXPECT_FALSE(legacy.epoch_pipeline);
    EXPECT_FALSE(legacy.has_load());
    EXPECT_EQ(legacy.mempool_capacity, 0u);

    Scenario ext = generate_scenario(seed);
    saw_extended_faults |= !ext.link_flaps.empty() ||
                           !ext.stragglers.empty() || ext.self_healing;
    saw_load |= ext.has_load();
    saw_storm |= ext.epoch_pipeline;
    ext.link_flaps.clear();
    ext.stragglers.clear();
    ext.self_healing = false;
    ext.epoch_pipeline = false;
    // Churn storms only append events after the legacy-drawn ones.
    ASSERT_GE(ext.churn.size(), legacy.churn.size());
    ext.churn.resize(legacy.churn.size());
    ext.load_rate_hz = 0.0;
    ext.load_duration_ms = 0.0;
    ext.load_start_ms = 0.0;
    ext.load_seed = 0;
    ext.mempool_capacity = 0;
    ext.drain_ms = legacy.drain_ms;
    EXPECT_EQ(serialize(ext), serialize(legacy));
  }
  EXPECT_TRUE(saw_extended_faults) << "extended sampler never fired";
  EXPECT_TRUE(saw_load) << "load sampler never fired";
  EXPECT_TRUE(saw_storm) << "churn-storm sampler never fired";
}

TEST(Scenario, ExtendedFieldsRoundTrip) {
  Scenario s;
  s.seed = 99;
  s.self_healing = true;
  s.link_flaps.push_back(LinkFlap{3, 8, 120.5, 900.25});
  s.link_flaps.push_back(LinkFlap{1, 2, 40.0, 45.0});
  s.stragglers.push_back(Straggler{6, 150.75});
  const std::string text = serialize(s);
  const auto parsed = parse_scenario(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(serialize(*parsed), text);
  ASSERT_EQ(parsed->link_flaps.size(), 2u);
  EXPECT_EQ(parsed->link_flaps[0].a, 3u);
  EXPECT_EQ(parsed->link_flaps[0].b, 8u);
  EXPECT_DOUBLE_EQ(parsed->link_flaps[0].start_ms, 120.5);
  EXPECT_DOUBLE_EQ(parsed->link_flaps[0].end_ms, 900.25);
  ASSERT_EQ(parsed->stragglers.size(), 1u);
  EXPECT_EQ(parsed->stragglers[0].node, 6u);
  EXPECT_DOUBLE_EQ(parsed->stragglers[0].multiplier, 150.75);
  EXPECT_TRUE(parsed->self_healing);
}

TEST(Scenario, LoadFieldsRoundTripAndGateTheirKeys) {
  Scenario s;
  s.seed = 100;
  s.load_rate_hz = 24.5;
  s.load_duration_ms = 1200.0;
  s.load_start_ms = 75.5;
  s.load_seed = 0xfeedULL;
  s.mempool_capacity = 32;
  EXPECT_TRUE(s.has_load());
  const std::string text = serialize(s);
  const auto parsed = parse_scenario(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(serialize(*parsed), text);
  EXPECT_DOUBLE_EQ(parsed->load_rate_hz, 24.5);
  EXPECT_DOUBLE_EQ(parsed->load_duration_ms, 1200.0);
  EXPECT_DOUBLE_EQ(parsed->load_start_ms, 75.5);
  EXPECT_EQ(parsed->load_seed, 0xfeedULL);
  EXPECT_EQ(parsed->mempool_capacity, 32u);

  // Off means absent: historical corpus files must not grow new keys.
  Scenario off;
  off.seed = 100;
  const std::string off_text = serialize(off);
  EXPECT_EQ(off_text.find("load_"), std::string::npos);
  EXPECT_EQ(off_text.find("mempool_capacity"), std::string::npos);
}

TEST(Scenario, BenignPredicateMatchesDefinition) {
  Scenario s;
  EXPECT_TRUE(s.benign());
  s.drop_probability = 0.05;
  EXPECT_FALSE(s.benign());
  s.drop_probability = 0.0;
  s.byzantine.push_back({3, Behavior::kDropper});
  EXPECT_FALSE(s.benign());
  EXPECT_FALSE(s.has_front_runner());
  s.byzantine.push_back({4, Behavior::kFrontRunner});
  EXPECT_TRUE(s.has_front_runner());
}

TEST(Scenario, MaxConcurrentCrashesTracksRecovery) {
  Scenario s;
  ChurnEvent crash;
  crash.at_ms = 100.0;
  crash.nodes = {5, 6};
  s.churn.push_back(crash);
  ChurnEvent rec;
  rec.at_ms = 500.0;
  rec.recover = true;
  rec.nodes = {5};
  s.churn.push_back(rec);
  ChurnEvent crash2;
  crash2.at_ms = 900.0;
  crash2.nodes = {7};
  s.churn.push_back(crash2);
  EXPECT_EQ(s.max_concurrent_crashes(), 2u);
}

}  // namespace
}  // namespace hermes::fuzz
