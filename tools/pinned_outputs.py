#!/usr/bin/env python3
"""Diff (or re-record) the exact outputs pinned in tests/pinned_outputs.txt.

The file has five sections:

  [corpus]    the listing of `fuzz --hash-batch 24`: seed, trace hash and
              send count of each scenario of the 24-seed corpus. The ctest
              PinnedOutputs.CorpusMatchesHashBatch diffs it against a fresh
              run on every test pass.
  [extended]  the listing of `fuzz --hash-batch 48 --extended`: the same
              for seeds 1-48 of the default generator, whose scenarios
              also send the churn, view-change, digest and join messages.
              The ctest PinnedOutputs.ExtendedCorpusMatchesHashBatch diffs
              it.
  [directed]  the trace line of each directed scenario: `fuzz
              --recovery`, `fuzz --churn` (one line per worker count) and
              `fuzz --paper-scale 2000`, each prefixed with its scenario
              and stripped of its wall-clock field. These are the only
              pinned runs of the crash-repair, join-storm and N = 2000
              paths. The ctest pinned_directed runs them and diffs it.
  [e2e]       every exact metric of an untraced
              `hermes_e2e --workload W --seed 42`, one "workload metric
              value" line each, for every workload in BENCHMARK.json.
  [bench]     the stdout of every table, figure and ablation bench and of
              bench_workload at its defaults, each line prefixed with the
              bench's name. None of these benches reads a clock.

A change that is meant to keep behaviour must leave every section as it
is. A change that moves behaviour on purpose re-records the file once,
in its own commit, and says why in CHANGES.md.

Run from the root of the repository:

  python3 tools/pinned_outputs.py e2e [--binary PATH] [--record]
      Runs every workload once and diffs its exact metrics against the
      [e2e] section (about 10 s). PATH defaults to the benchmark's own
      Release build, .bench_build/e2ebench/hermes_e2e, which is built or
      brought up to date first. --record rewrites the section instead.

  python3 tools/pinned_outputs.py corpus LISTING [--record]
      Diffs a saved `fuzz --hash-batch 24` listing ("-" reads stdin)
      against the [corpus] section. --record rewrites the section instead.

  python3 tools/pinned_outputs.py extended LISTING [--record]
      The same for a saved `fuzz --hash-batch 48 --extended` listing and
      the [extended] section.

  python3 tools/pinned_outputs.py directed (LISTING | --fuzz PATH) [--record]
      The same for the saved output of `fuzz --recovery`, `fuzz --churn`
      and `fuzz --paper-scale 2000`, run one after the other into one
      listing, and the [directed] section. With --fuzz, PATH is the fuzz
      binary (e.g. build/tools/fuzz): the three scenarios run here first,
      and one that exits non-zero fails its own checks.

  python3 tools/pinned_outputs.py bench [--build DIR] [--record]
      Runs each bench of the [bench] section from DIR/bench (default
      build/bench; about 7 s) and diffs its stdout against the section.
      --record rewrites the section instead.

Exits 1 when a diff is found, 2 on a usage or build error or when a
directed scenario exits non-zero.
"""
import argparse
import difflib
import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PINNED = REPO / "tests" / "pinned_outputs.txt"
E2E_SOURCE = REPO / "e2ebench"
E2E_BUILD = REPO / ".bench_build" / "e2ebench"
E2E_SEED = 42
SECTIONS = {
    "corpus": "fuzz --hash-batch 24",
    "extended": "fuzz --hash-batch 48 --extended",
    "directed": "fuzz --recovery; fuzz --churn; fuzz --paper-scale 2000",
    "e2e": f"hermes_e2e --workload W --seed {E2E_SEED}, untraced",
    "bench": "bench_table1, bench_fig*, bench_ablation_*, bench_workload",
}
BENCHES = [
    "bench_table1",
    "bench_fig2_overlays",
    "bench_fig3a_latency",
    "bench_fig3b_bandwidth",
    "bench_fig4_roles",
    "bench_fig5a_frontrunning",
    "bench_fig5b_robustness",
    "bench_ablation_annealing",
    "bench_ablation_batching",
    "bench_ablation_committee",
    "bench_ablation_k",
    "bench_workload",
]


def read_pinned():
    """Returns the header comment lines and each section's body lines."""
    header, sections, current = [], {}, None
    for line in PINNED.read_text().splitlines():
        if line.startswith("[") and "]" in line:
            current = line[1:line.index("]")]
            sections[current] = []
        elif current is None:
            header.append(line)
        elif line.strip() and not line.startswith("#"):
            sections[current].append(line.rstrip())
    return header, sections


def write_pinned(header, sections):
    out = list(header)
    for name, title in SECTIONS.items():
        out.append(f"[{name}] {title}")
        out.extend(sections.get(name, []))
        out.append("")
    PINNED.write_text("\n".join(out))


def directed_lines(text):
    """The trace lines of a directed listing, each prefixed with the
    scenario whose header ("recovery smoke: ...", "churn smoke: ...",
    "paper-scale: ...") precedes it, without the wall-clock field."""
    lines, scenario = [], None
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0].rstrip(":") in ("recovery", "churn", "paper-scale"):
            scenario = words[0].rstrip(":")
        elif "trace " in line and scenario is not None:
            lines.append(f"{scenario} " +
                         re.sub(r", \d+ wall-ms", "", line.rstrip()))
    return lines


def run_directed(fuzz):
    """Runs the three directed scenarios and returns their joint output;
    raises CalledProcessError, after printing its output, when one exits
    non-zero."""
    text = ""
    for args in (["--recovery"], ["--churn"], ["--paper-scale", "2000"]):
        proc = subprocess.run([fuzz, *args], capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        text += proc.stdout
    return text


def e2e_binary(path):
    if path:
        return Path(path)
    # Always brought up to date: a binary left from an older tree would
    # diff stale metrics. The build is a no-op when nothing changed.
    if not (E2E_BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(E2E_SOURCE), "-B",
                        str(E2E_BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(E2E_BUILD), "--target",
                    "hermes_e2e", "--parallel", "4"],
                   check=True, stdout=sys.stderr)
    return E2E_BUILD / "hermes_e2e"


def e2e_lines(binary):
    with open(REPO / "BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    lines = []
    for w in workloads:
        print(f"running {w}", file=sys.stderr, flush=True)
        proc = subprocess.run(
            [str(binary), "--workload", w, "--seed", str(E2E_SEED)],
            capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in report["metrics"].items():
            if m["exact"]:
                lines.append(f"{w} {name} {json.dumps(m['value'])}")
    return lines


def bench_lines(build):
    """The stdout of every bench at its defaults, each line prefixed with
    the bench's name; blank lines are kept as the bare name."""
    lines = []
    for name in BENCHES:
        print(f"running {name}", file=sys.stderr, flush=True)
        proc = subprocess.run([str(Path(build) / "bench" / name)],
                              capture_output=True, text=True, check=True)
        lines.extend(f"{name} {line}".rstrip()
                     for line in proc.stdout.splitlines())
    return lines


def diff(section, pinned, fresh):
    """Prints every differing line; returns True when they all match."""
    if pinned == fresh:
        print(f"[{section}] matches {PINNED.relative_to(REPO)} "
              f"({len(fresh)} lines)")
        return True
    if section == "bench":
        # Bench lines repeat (headers, blank lines), so diff them in order.
        for line in difflib.unified_diff(pinned, fresh, "pinned", "fresh",
                                         lineterm="", n=1):
            print(line)
        print(f"[{section}] differs from {PINNED.relative_to(REPO)}")
        return False
    # A listing line is keyed by its seed, an e2e line by workload and
    # metric, a directed line by scenario and worker count.
    fields = 1 if section in ("corpus", "extended") else 2

    def keyed(lines):
        return {" ".join(line.split()[:fields]): line for line in lines}
    old, new = keyed(pinned), keyed(fresh)
    for key in sorted(set(old) | set(new), key=lambda k: (k not in old, k)):
        if old.get(key) != new.get(key):
            print(f"- {old.get(key, '(absent)')}")
            print(f"+ {new.get(key, '(absent)')}")
    print(f"[{section}] differs from {PINNED.relative_to(REPO)}")
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="section", required=True)
    e2e = sub.add_parser("e2e")
    e2e.add_argument("--binary")
    e2e.add_argument("--record", action="store_true")
    for name in ("corpus", "extended"):
        listing = sub.add_parser(name)
        listing.add_argument("listing")
        listing.add_argument("--record", action="store_true")
    directed = sub.add_parser("directed")
    source = directed.add_mutually_exclusive_group(required=True)
    source.add_argument("listing", nargs="?")
    source.add_argument("--fuzz")
    directed.add_argument("--record", action="store_true")
    bench = sub.add_parser("bench")
    bench.add_argument("--build", default=str(REPO / "build"))
    bench.add_argument("--record", action="store_true")
    args = ap.parse_args()

    header, sections = read_pinned()
    try:
        if args.section == "e2e":
            fresh = e2e_lines(e2e_binary(args.binary))
        elif args.section == "bench":
            fresh = bench_lines(args.build)
        else:
            if getattr(args, "fuzz", None):
                text = run_directed(args.fuzz)
            elif args.listing == "-":
                text = sys.stdin.read()
            else:
                text = Path(args.listing).read_text()
            fresh = (directed_lines(text) if args.section == "directed"
                     else [line.rstrip() for line in text.splitlines()
                           if line.strip()])
    except (OSError, subprocess.CalledProcessError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.record:
        sections[args.section] = fresh
        write_pinned(header, sections)
        print(f"recorded [{args.section}] ({len(fresh)} lines)")
        return 0
    return 0 if diff(args.section, sections.get(args.section, []),
                     fresh) else 1


if __name__ == "__main__":
    sys.exit(main())
