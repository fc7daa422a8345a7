#!/usr/bin/env python3
"""End-to-end benchmark of HERMES (see README.md in this directory).

Builds e2ebench/hermes_e2e from the checkout's sources, runs workloads as
fresh processes, checks their outputs and reports every metric by name and
unit. Run from the root of the repository:

  python3 e2ebench/run.py --workload W --seed S --seconds T --trace 0|1
      One measured run: repeats W in fresh processes for about T seconds
      (at least three times, so set-up is timed several times) and prints
      one JSON line with the median of each end-to-end metric (--trace 0),
      or, after one extra traced process, each per-layer metric (--trace 1).

  python3 e2ebench/run.py [--reps R] [--workload W ...] [--seed S]
      The suite: R repetitions per workload (default 5), interleaved
      round-robin across workloads, then one traced pass per workload.
      Prints median, quartiles and sample count for every metric, writes
      e2ebench/out/<workload>.trace.json and e2ebench/out/suite.json.

  python3 e2ebench/run.py --smoke
      Every workload at N=200 with a short load, at 1 and 4 workers; the
      exact metrics must match across worker counts.

Every mode exits non-zero when a check fails. Metric names, units and the
workload list come from BENCHMARK.json at the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = REPO / ".bench_build" / "e2ebench"
BINARY = BUILD / "hermes_e2e"
OUT = HERE / "out"

MIN_ITERATIONS = 3
PROCESS_TIMEOUT_S = 170
SMOKE_ARGS = ["--nodes", "200", "--txs", "20"]


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        raise CheckFailed(f"library sources not found under {REPO / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "hermes_e2e",
                    "--parallel", jobs], check=True, stdout=sys.stderr)


def run_once(workload, seed, extra=()):
    """One fresh process: returns its JSON report plus its elapsed time."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), *extra]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise CheckFailed(f"{' '.join(cmd)} exited {proc.returncode}: "
                          f"{proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["process_s"] = elapsed
    return report


def value(report, name):
    return report["metrics"][name]["value"]


def exact_metrics(report):
    return {k: m["value"] for k, m in report["metrics"].items() if m["exact"]}


def check_reports(reports):
    """Checks repetitions of one workload at one seed; returns problems."""
    problems = []
    name = reports[0]["workload"]
    first = exact_metrics(reports[0])
    for r in reports[1:]:
        for k, v in exact_metrics(r).items():
            if v != first[k]:
                problems.append(f"{name}: exact metric {k} differs across "
                                f"repetitions ({first[k]!r} vs {v!r})")
    for r in reports:
        setup = value(r, "setup_s")
        parts = sum(value(r, k) for k in
                    ("net.topology_s", "sim.world_s", "protocols.populate_s"))
        if abs(parts - setup) > 0.02 * setup:
            problems.append(f"{name}: setup parts sum to {parts:.6f} s, "
                            f"setup_s is {setup:.6f} s")
        if r["protocol"] == "hermes" and value(r, "failed") != 0:
            problems.append(f"{name}: {value(r, 'failed'):.0f} of "
                            f"{value(r, 'attempted'):.0f} transactions missed "
                            "a live honest node")
        # p99 needs at least ten samples beyond it.
        if value(r, "latency_samples") < 1000:
            problems.append(f"{name}: only {value(r, 'latency_samples'):.0f} "
                            "latency samples")
    return sorted(set(problems))


def check_same_exact(a, b, what):
    problems = []
    for k, v in exact_metrics(a).items():
        if k in b["metrics"] and b["metrics"][k]["value"] != v:
            problems.append(f"{a['workload']}: exact metric {k} differs "
                            f"{what} ({v!r} vs {b['metrics'][k]['value']!r})")
    return problems


def median_of(reports, name):
    values = [value(r, name) for r in reports]
    if values[0] is None:
        return None
    return statistics.median(values)


def traced_pass(workload, seed, reports, extra=()):
    """One traced process plus one comparison rerun; returns the per-layer
    metrics (name -> value) and the problems found."""
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{workload}.trace.json"
    traced = run_once(workload, seed,
                      [*extra, "--trace", str(trace_path)])
    problems = check_same_exact(reports[0], traced, "when traced")
    layers = {k: m["value"] for k, m in traced["metrics"].items()}
    # Wall-clock layer times the untraced repetitions also report: take
    # their median, which the send tap does not perturb.
    for k, m in reports[0]["metrics"].items():
        if not m["exact"]:
            layers[k] = median_of(reports, k)
    # Annealing, node construction and on_start are what remains of
    # populate once the standalone tree, certify and keygen probes are off.
    layers["overlay.anneal_s"] = 0.0
    if traced["protocol"] == "hermes":
        probed = ("overlay.tree_s", "overlay.certify_s", "crypto.keygen_s")
        layers["overlay.anneal_s"] = max(
            0.0, layers["protocols.populate_s"] -
            sum(layers[k] for k in probed))
    run_s = median_of(reports, "run_s")
    layers["sim.trace_overhead"] = value(traced, "run_s") / run_s
    layers["workload.frontrun_success_rate"] = (
        value(traced, "frontrun_success_rate") or 0.0)
    layers["workload.fail_rate"] = value(traced, "fail_rate")

    layers["sim.speedup_w4"] = 1.0
    if traced["workers"] > 1:
        w1 = run_once(workload, seed, [*extra, "--workers", "1"])
        problems += check_same_exact(reports[0], w1, "at workers=1")
        layers["sim.speedup_w4"] = value(w1, "run_s") / run_s
    layers["crypto.share"] = 0.0
    if traced["signer"] == "real":
        sim = run_once(workload, seed, [*extra, "--signer", "sim"])
        layers["crypto.share"] = 1.0 - value(sim, "run_s") / run_s
    return layers, problems


def load_spec():
    path = REPO / "BENCHMARK.json"
    with open(path) as f:
        return json.load(f)


def result_line(spec, reports, layers, problems):
    if layers is None:
        wanted = spec["end_to_end"]
        values = {m["name"]: median_of(reports, m["name"]) for m in wanted}
    else:
        wanted = spec["per_layer"]
        values = layers
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            problems.append(f"metric {m['name']} has no value")
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {
        "correct": not problems,
        "attempted": int(sum(value(r, "attempted") for r in reports)),
        "failed": int(sum(value(r, "failed") for r in reports)),
        "metrics": metrics,
    }


def measured_run(spec, workload, seed, seconds, trace):
    reports = []
    start = time.monotonic()
    while True:
        reports.append(run_once(workload, seed))
        typical = statistics.median(r["process_s"] for r in reports)
        if (len(reports) >= MIN_ITERATIONS and
                time.monotonic() - start + typical > seconds):
            break
    problems = check_reports(reports)
    layers = None
    if trace:
        layers, more = traced_pass(workload, seed, reports)
        problems += more
    for p in problems:
        log(f"CHECK FAILED: {p}")
    print(json.dumps(result_line(spec, reports, layers, problems)))
    return not problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_table(workload, reports, layers):
    print(f"\n== {workload} (n={len(reports)} repetitions; "
          "exact metrics are identical in every repetition)")
    print(f"  {'metric':34} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14}")
    for name, m in reports[0]["metrics"].items():
        values = [value(r, name) for r in reports]
        if values[0] is None:
            print(f"  {name:34} {m['unit']:6} {'null':>14}")
            continue
        q1, q3 = quartiles(values)
        print(f"  {name:34} {m['unit']:6} {statistics.median(values):14.6g} "
              f"{q1:14.6g} {q3:14.6g}")
    print(f"  -- traced pass: {OUT / (workload + '.trace.json')}")
    for name, v in sorted(layers.items()):
        if name not in reports[0]["metrics"]:
            print(f"  {name:34} {'':6} {v:14.6g}")


def suite(spec, workloads, seed, reps):
    reports = {w: [] for w in workloads}
    for rep in range(reps):
        for w in workloads:
            log(f"[{rep + 1}/{reps}] {w}")
            reports[w].append(run_once(w, seed))
    problems = []
    summary = {}
    for w in workloads:
        problems += check_reports(reports[w])
        log(f"[traced] {w}")
        layers, more = traced_pass(w, seed, reports[w])
        problems += more
        print_table(w, reports[w], layers)
        summary[w] = {
            "n": reps,
            "metrics": {
                k: {"values": [value(r, k) for r in reports[w]],
                    "unit": m["unit"], "exact": m["exact"]}
                for k, m in reports[w][0]["metrics"].items()},
            "layers": layers,
        }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "suite.json", "w") as f:
        json.dump({"seed": seed, "workloads": summary}, f, indent=1)
    return problems


def smoke(workloads):
    problems = []
    for w in workloads:
        found = []
        by_workers = {}
        for workers in ("1", "4"):
            extra = [*SMOKE_ARGS, "--workers", workers]
            reports = [run_once(w, 7, extra) for _ in range(2)]
            found += check_reports(reports)
            by_workers[workers] = reports[0]
        found += check_same_exact(by_workers["1"], by_workers["4"],
                                  "between workers=1 and workers=4")
        _, more = traced_pass(w, 7, [by_workers["4"]],
                              [*SMOKE_ARGS, "--workers", "4"])
        found += more
        log(f"smoke {w}: {'FAILED' if found else 'ok'}")
        problems += found
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        workloads = args.workload or names
        unknown = sorted(set(workloads) - set(names))
        if unknown:
            raise CheckFailed(f"unknown workload(s): {', '.join(unknown)}")
        build()
        if args.seconds is not None:
            if len(workloads) != 1:
                raise CheckFailed("--seconds measures exactly one --workload")
            ok = measured_run(spec, workloads[0], args.seed, args.seconds,
                              args.trace == 1)
            return 0 if ok else 1
        problems = smoke(workloads) if args.smoke else suite(
            spec, workloads, args.seed, args.reps)
    except (CheckFailed, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(f"error: {e}")
        return 1
    for p in problems:
        log(f"CHECK FAILED: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
