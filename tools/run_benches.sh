#!/usr/bin/env bash
# Unified benchmark entry point. Runs the overlay-construction and
# sim-engine benchmark suites and writes BENCH_overlay.json and
# BENCH_sim.json: google-benchmark JSON reports wrapped together with the
# pre-rewrite baseline numbers, so before/after is recorded in one
# artifact per suite.
#
# Also runs the workload-economics bench (bench_workload) and writes
# BENCH_workload.json: per-protocol attacker sandwich/insertion success
# rates and profit-by-overlay-position under identical Poisson and
# adversarial load with fee-priority mempool pressure.
#
# The crypto suite (bench_crypto) writes BENCH_crypto.json: bignum kernel
# curves (mul/sqr vs operand size), Montgomery modexp vs the frozen pre-PR
# reference kernel — the headline modexp_2048_speedup_vs_legacy ratio is
# computed from the same run, as is fixed_base_1024_speedup (fixed-base
# table vs sliding window at a 1,537-bit exponent) — plus threshold-RSA
# sign/verify/combine throughput at 1024-bit keys and the 512-bit safe-prime
# search, whose mean Miller-Rabin calls per prime (an exact count) it
# records as safe_prime_512_mr_calls.
#
# The end-to-end suite (e2ebench/run.py, which builds its own Release
# binary) writes BENCH_e2e.json: per workload, the median, quartiles and
# sample count of every metric over ten repetitions, the traced per-layer
# metrics, and the commit and host they were measured on. The previous
# BENCH_e2e.json's commit and per-workload medians stay in it as the
# "baseline" block.
#
# Usage: tools/run_benches.sh [--quick]
#                             [--only overlay|sim|workload|crypto|e2e]
#                             [--nodes N] [--workers W]
#   BUILD_DIR=<dir>  build tree to use (default: <repo>/build)
#   --quick          smoke mode for CI: tiny subset, 1 repetition, still
#                    emits the JSON artifacts (includes a --workers 2
#                    sharded-engine dissemination smoke); skips e2e
#   --only SUITE     run just one suite
#   --nodes N        additionally run the paper-scale configs at N nodes
#                    (forwarded to both suites; e.g. 2000 or 10000). The
#                    sim suite runs the HERMES dissemination at N as a
#                    workers sweep (1/2/4/8) over the sharded engine.
#   --workers W      restrict that sweep to a single worker count
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"

QUICK=0
ONLY=""
NODES=""
WORKERS=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --only)
      ONLY="$2"
      shift
      ;;
    --nodes)
      NODES="$2"
      shift
      ;;
    --workers)
      WORKERS="$2"
      shift
      ;;
    *)
      echo "usage: tools/run_benches.sh [--quick] [--only overlay|sim|workload|crypto|e2e] [--nodes N] [--workers W]" >&2
      exit 2
      ;;
  esac
  shift
done

REPS=3
AGG=true
if [[ $QUICK -eq 1 ]]; then
  REPS=1
  AGG=false
fi

need_bin() {
  if [[ ! -x $1 ]]; then
    echo "error: $1 not built (cmake --preset default && cmake --build $BUILD -j)" >&2
    exit 1
  fi
}

run_overlay() {
  local bin="$BUILD/bench/bench_overlay_build"
  need_bin "$bin"
  local out="$ROOT/BENCH_overlay.json"
  local tmp
  tmp="$(mktemp)"
  local filter='BM_RobustTreeBuild|BM_OverlaySetBuildK10|BM_SimulatedAnnealing'
  if [[ $QUICK -eq 1 ]]; then
    filter='BM_RobustTreeBuild|BM_SimulatedAnnealingPass'
  fi
  local extra=()
  [[ -n $NODES ]] && extra+=(--nodes "$NODES")
  "$bin" \
    --benchmark_filter="$filter" \
    --benchmark_repetitions="$REPS" \
    --benchmark_report_aggregates_only="$AGG" \
    --benchmark_out="$tmp" \
    --benchmark_out_format=json \
    "${extra[@]}"

  # Baselines measured with the same bench configs: the seed revision
  # (whole-overlay copies + from-scratch objective per candidate, per-call
  # link-cost cache) on 1 vCPU, and the revision before bounded set-up
  # searches on 4 vCPUs, whose annealing pass reused a warm link-cost cache
  # across iterations and so timed the moves alone.
  cat > "$out" <<EOF
{
  "baseline_before_incremental_objective": {
    "note": "pre-rewrite seed: overlay copied and rescored from scratch per candidate move",
    "BM_SimulatedAnnealingPass_ms": 8.27,
    "BM_OverlaySetBuildK10/100_ms": 35.8,
    "BM_OverlaySetBuildK10/200_ms": 101.0
  },
  "baseline_before_bounded_searches": {
    "note": "full shortest-path rows for logical links; annealing pass timed with a warm LinkCostCache, cold-cache pass rebuilt it per call",
    "BM_RobustTreeBuild/400_ms": 5.85,
    "BM_SimulatedAnnealingPass_warm_cache_ms": 0.561,
    "BM_SimulatedAnnealingColdCache_ms": 5.37,
    "BM_OverlaySetBuildK10/100_ms": 6.98,
    "BM_OverlaySetBuildK10/200_ms": 29.9
  },
  "current": $(cat "$tmp")
}
EOF
  rm -f "$tmp"
  echo "wrote $out"
}

run_sim() {
  local bin="$BUILD/bench/bench_sim_engine"
  need_bin "$bin"
  local out="$ROOT/BENCH_sim.json"
  local tmp
  tmp="$(mktemp)"
  local filter='BM_Engine|BM_Network|BM_HermesDissemination|BM_GossipDissemination|BM_DegradedDissemination|BM_ChurnedDissemination'
  if [[ $QUICK -eq 1 ]]; then
    filter='BM_EngineScheduleDrain/1024$|BM_NetworkRandomSends'
  fi
  local extra=()
  [[ -n $NODES ]] && extra+=(--nodes "$NODES")
  [[ -n $WORKERS ]] && extra+=(--workers "$WORKERS")
  "$bin" \
    --benchmark_filter="$filter" \
    --benchmark_repetitions="$REPS" \
    --benchmark_report_aggregates_only="$AGG" \
    --benchmark_out="$tmp" \
    --benchmark_out_format=json \
    "${extra[@]}"

  if [[ $QUICK -eq 1 ]]; then
    # Sharded-engine smoke: a small dissemination run on 2 worker threads.
    # Output is informational (not merged into the JSON artifact); the run
    # failing is what the smoke guards against.
    "$bin" --nodes 300 --workers 2 \
      --benchmark_filter='BM_HermesDissemination/300/workers:2'
    # Churn smoke: the pipelined arm of the join/leave-storm dissemination
    # bench. Guards the epoch pipeline end-to-end (incremental joins,
    # warm-started re-anneal, background install) under crash + rejoin.
    "$bin" --benchmark_filter='BM_ChurnedDissemination/1/' \
      --benchmark_repetitions=1
  fi

  # Baselines: the seed revision (std::function callbacks in a binary-heap
  # priority_queue, RTTI dynamic_cast message dispatch, unordered_map
  # pair-latency cache), measured on the same machine with the same bench
  # configs before the pooled-engine rewrite; and the three-tier ladder
  # queue each lane had before it became one heap, timed on one region
  # lane by the same bench source on the 4-vCPU host (median of six
  # rounds alternated with the heap build).
  cat > "$out" <<EOF
{
  "baseline_ladder_queue": {
    "note": "per-lane three-tier ladder queue (small heap, bucket rungs, far-future overflow); BM_Engine* time one region lane",
    "BM_EngineScheduleDrain/1024_Mevents_per_sec": 6.23,
    "BM_EngineScheduleDrain/65536_Mevents_per_sec": 2.69,
    "BM_EngineScheduleDrain/1048576_Mevents_per_sec": 0.92,
    "BM_EngineScheduleDrainDeliverySized/1024_Mevents_per_sec": 6.48,
    "BM_EngineScheduleDrainDeliverySized/65536_Mevents_per_sec": 2.61,
    "BM_EngineSteadyStateTimers/64_Mevents_per_sec": 9.07,
    "BM_EngineSteadyStateTimers/4096_Mevents_per_sec": 8.74
  },
  "baseline_before_pooled_engine": {
    "note": "pre-rewrite seed: heap-allocated std::function events in std::priority_queue, dynamic_cast body dispatch",
    "BM_EngineScheduleDrain/1048576_Mevents_per_sec": 0.878,
    "BM_EngineScheduleDrainDeliverySized/65536_Mevents_per_sec": 1.70,
    "BM_EngineSteadyStateTimers/4096_Mevents_per_sec": 5.57,
    "BM_NetworkRandomSends_Mevents_per_sec": 1.23,
    "BM_HermesDissemination/500_events_per_sec": 1030640,
    "BM_HermesDissemination/2000_events_per_sec": 551283,
    "BM_GossipDissemination/2000_events_per_sec": 1700960
  },
  "current": $(cat "$tmp")
}
EOF
  rm -f "$tmp"
  echo "wrote $out"
}

run_workload() {
  local bin="$BUILD/bench/bench_workload"
  need_bin "$bin"
  local out="$ROOT/BENCH_workload.json"
  local tmp
  tmp="$(mktemp)"
  local extra=()
  if [[ $QUICK -eq 1 ]]; then
    # Smoke: small network, short load window — still all four protocols,
    # both the Poisson baseline and the adversarial pass.
    extra+=(--nodes 60 --rate 20 --duration 500)
  elif [[ -n $NODES ]]; then
    extra+=(--nodes "$NODES")
  fi
  "$bin" --json "$tmp" "${extra[@]}"

  # Baseline: the Figure 5a single-tx judgement (one sampled proposer per
  # victim, no fee model, no mempool pressure), recorded when the workload
  # engine landed so the load-vs-idle attack surface stays comparable.
  cat > "$out" <<EOF
{
  "baseline_fig5a_single_judge": {
    "note": "pre-workload seed (bench_fig5a --nodes 60 --reps 2 --txs 8): one tx in flight at a time, single sampled proposer per verdict, unbounded mempool, no fees",
    "hermes_success_rate_at_15pct": 0.000,
    "l0_success_rate_at_15pct": 0.062,
    "narwhal_success_rate_at_15pct": 0.312,
    "mercury_success_rate_at_15pct": 0.312
  },
  "current": $(cat "$tmp")
}
EOF
  rm -f "$tmp"
  echo "wrote $out"
}

run_crypto() {
  local bin="$BUILD/bench/bench_crypto"
  need_bin "$bin"
  local out="$ROOT/BENCH_crypto.json"
  local tmp
  tmp="$(mktemp)"
  # The modexp 2048 pair (new Montgomery kernel vs the frozen pre-PR
  # schoolbook reference) stays in every mode so the headline speedup is
  # always measured within a single process run.
  local filter='.'
  if [[ $QUICK -eq 1 ]]; then
    filter='BM_ModExp(Legacy)?/2048|BM_ModExp/1024/1537|BM_FixedBasePow|BM_MulNew/32|BM_SafePrime|BM_Threshold|BM_RsaFdhVerify'
  fi
  # Threshold and RSA-FDH rows at 1024 bits, the key size of the
  # real-crypto e2e workload; bench_crypto records it in the JSON context.
  "$bin" \
    --rsa-bits 1024 \
    --benchmark_filter="$filter" \
    --benchmark_repetitions="$REPS" \
    --benchmark_report_aggregates_only="$AGG" \
    --benchmark_out="$tmp" \
    --benchmark_out_format=json

  local ratios speedup fixed_base mr_calls
  ratios="$(python3 - "$tmp" <<'PY'
import json, sys

d = json.load(open(sys.argv[1]))
def field(name, key):
    direct = None
    for b in d.get("benchmarks", []):
        if b["name"] == name + "_median":
            return b.get(key)
        if b["name"] == name:
            direct = b.get(key)
    return direct

def ratio(slow, fast):
    a, b = field(slow, "real_time"), field(fast, "real_time")
    return f"{a / b:.2f}" if a and b else "null"

mr_calls = field("BM_SafePrime/512", "mr_calls")
print(ratio("BM_ModExpLegacy/2048", "BM_ModExp/2048"),
      ratio("BM_ModExp/1024/1537", "BM_FixedBasePow/1024"),
      f"{mr_calls:.1f}" if mr_calls is not None else "null")
PY
)"
  read -r speedup fixed_base mr_calls <<< "$ratios"

  # Baseline: seed revision kernels (32-bit limb schoolbook multiply,
  # bit-at-a-time square-and-multiply powmod) — frozen verbatim in
  # src/crypto/bignum_reference.cpp and re-measured as the BM_*Legacy
  # benches of the same run, so the ratio below never goes stale.
  cat > "$out" <<EOF
{
  "baseline_schoolbook_kernels": {
    "note": "pre-PR seed kernels live on as crypto::ref (bignum_reference.cpp) and run as BM_MulLegacy/BM_ModExpLegacy in this same report; fixed_base_1024_speedup is BM_ModExp/1024/1537 over BM_FixedBasePow/1024, the sliding window against the fixed-base table on the same inputs; safe_prime_512_mr_calls is BM_SafePrime/512's mean Miller–Rabin calls per safe prime, an exact count",
    "modexp_2048_speedup_vs_legacy": $speedup,
    "fixed_base_1024_speedup": $fixed_base,
    "safe_prime_512_mr_calls": $mr_calls
  },
  "current": $(cat "$tmp")
}
EOF
  rm -f "$tmp"
  echo "wrote $out (modexp 2048 speedup vs legacy: ${speedup}x, fixed-base 1024: ${fixed_base}x, safe-prime 512 MR calls: ${mr_calls})"
}

run_e2e() {
  local out="$ROOT/BENCH_e2e.json"
  (cd "$ROOT" && python3 e2ebench/run.py --reps 10)
  python3 - "$ROOT" "$out" <<'PY'
import json, os, statistics, subprocess, sys

root, out = sys.argv[1], sys.argv[2]
suite = json.load(open(os.path.join(root, "e2ebench", "out", "suite.json")))

# The report this run replaces becomes the baseline: its commit and the
# median of every metric per workload.
baseline = None
if os.path.exists(out):
    previous = json.load(open(out))
    baseline = {
        "note": "the previous BENCH_e2e.json: its commit and per-workload "
                "medians",
        "commit": previous.get("commit"),
        "workloads": {
            name: {k: m["median"] for k, m in w["metrics"].items()}
            for name, w in previous.get("workloads", {}).items()
        },
    }

def stats(values):
    if any(v is None for v in values):
        return {"median": None, "q1": None, "q3": None, "n": len(values)}
    q1, q3 = (statistics.quantiles(values, n=4)[0::2] if len(values) > 1
              else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}

def git(*args):
    return subprocess.run(["git", "-C", root, *args], capture_output=True,
                          text=True).stdout.strip()

cpu_model = "unknown"
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break

workloads = {}
for name, w in suite["workloads"].items():
    workloads[name] = {
        "metrics": {k: {"unit": m["unit"], "exact": m["exact"],
                        **stats(m["values"])}
                    for k, m in w["metrics"].items()},
        "layers": w["layers"],
    }
report = {
    "note": "python3 e2ebench/run.py --reps 10: medians and quartiles over "
            "the untraced repetitions, layers from one traced pass",
    "commit": git("rev-parse", "HEAD"),
    "dirty": git("status", "--porcelain", "--untracked-files=no") != "",
    "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model},
    "seed": suite["seed"],
    "workloads": workloads,
}
if baseline is not None:
    report["baseline"] = baseline
with open(out, "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
PY
  echo "wrote $out"
}

case "$ONLY" in
  "")
    run_overlay
    run_sim
    run_workload
    run_crypto
    [[ $QUICK -eq 1 ]] || run_e2e
    ;;
  overlay) run_overlay ;;
  sim) run_sim ;;
  workload) run_workload ;;
  crypto) run_crypto ;;
  e2e) run_e2e ;;
  *)
    echo "error: --only expects 'overlay', 'sim', 'workload', 'crypto' or 'e2e'" >&2
    exit 2
    ;;
esac
