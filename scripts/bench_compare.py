#!/usr/bin/env python3
"""Compares two checkouts on the repository benchmark (magicbench).

Two steps:

    # Run N alternating parent/change pairs and append every result line
    # (plus the run's exact-count fingerprint) to a JSON-lines file.
    python3 scripts/bench_compare.py run --parent ../parent --change . \\
        --workload analytic --seeds 101-110 --seconds 25 --out pairs.jsonl

    # Report medians, quartiles, pair wins, verdicts and fingerprints.
    python3 scripts/bench_compare.py report pairs.jsonl

`run` alternates which side goes first (pair 1 parent first, pair 2 change
first, ...), one seed per pair, and builds each side in its own directory
(<checkout>/.bench_build unless --build-root is given). `report` applies the
rules of BENCHMARK.json (read from the change's checkout, or --spec):

  - gain: the change wins at least 9 of every 10 pairs (ties count for
    neither side) and the medians differ, in the better direction, by more
    than the parent's interquartile range;
  - regression: the change's median is worse than the parent's by more
    than the metric's bound (a fraction of the parent's median);
  - unresolved: neither, and the parent's own IQR is wider than the bound,
    so "no regression" cannot be told from noise;
  - otherwise: within bound.

Fingerprints (every CostCounters field, spill byte and partition count of
the first pass of each seeded sequence) must be identical between the two
sides for every seed; any difference is listed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_one(checkout, build_root, workload, seed, seconds):
    """Runs one benchmark invocation; returns (result line dict, fingerprint)."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = build_root
    cmd = [sys.executable, os.path.join(checkout, "magicbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError("benchmark failed in %s (exit %d)"
                           % (checkout, proc.returncode))
    report = os.path.join(build_root, "magicbench", "reports",
                          "%s-seed%d-trace0.json" % (workload, seed))
    with open(report) as f:
        fingerprint = json.load(f)["fingerprint"]
    return json.loads(lines[-1]), fingerprint


def cmd_run(args):
    sides = {
        "parent": os.path.abspath(args.parent),
        "change": os.path.abspath(args.change),
    }
    builds = {}
    for side, checkout in sides.items():
        builds[side] = (os.path.join(os.path.abspath(args.build_root), side)
                        if args.build_root else
                        os.path.join(checkout, ".bench_build"))
    seeds = parse_seeds(args.seeds)
    with open(args.out, "a") as out:
        for pair, seed in enumerate(seeds):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for workload in args.workload:
                for position, side in enumerate(order):
                    result, fingerprint = run_one(sides[side], builds[side],
                                                  workload, seed, args.seconds)
                    record = {"workload": workload, "seed": seed, "pair": pair,
                              "side": side, "position": position,
                              "seconds": args.seconds, "result": result,
                              "fingerprint": fingerprint}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print("pair %d seed %d %s %s: qps %.3f" % (
                        pair + 1, seed, workload, side,
                        result["metrics"]["qps"]["value"]), file=sys.stderr)
    return 0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(spec, parent, change, wins, pairs):
    """Classifies one metric of one workload; see the module docstring."""
    higher = spec["better"] == "higher"
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    p_iqr = p_q3 - p_q1
    gap = (c_med - p_med) if higher else (p_med - c_med)  # > 0: change better
    if wins >= math.ceil(0.9 * pairs) and gap > p_iqr:
        return "GAIN"
    if p_med != 0 and -gap / abs(p_med) > spec["bound"]:
        return "REGRESSION"
    if p_med != 0 and p_iqr / abs(p_med) > spec["bound"]:
        return "unresolved"
    return "within bound"


def cmd_report(args):
    spec_path = args.spec or os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        metrics = json.load(f)["end_to_end"]
    records = []
    with open(args.results) as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    status = 0
    for workload in sorted({r["workload"] for r in records}):
        rows = [r for r in records if r["workload"] == workload]
        by_pair = {}
        for r in rows:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
        failures = [r for r in rows
                    if not r["result"]["correct"] or r["result"]["failed"] > 0]
        print("== %s: %d pairs, seeds %s%s" % (
            workload, len(complete),
            ",".join(str(by_pair[p]["parent"]["seed"]) for p in complete),
            "" if not failures else
            ", %d runs INCORRECT or with failed queries" % len(failures)))
        if failures:
            status = 1
        print("%-16s %26s %26s %6s %9s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "wins", "delta", "verdict"))
        for spec in metrics:
            name = spec["name"]
            parent = [by_pair[p]["parent"]["result"]["metrics"][name]["value"]
                      for p in complete]
            change = [by_pair[p]["change"]["result"]["metrics"][name]["value"]
                      for p in complete]
            if not complete:
                continue
            higher = spec["better"] == "higher"
            wins = sum(1 for a, b in zip(parent, change)
                       if (b > a if higher else b < a))
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            delta = (c_med - p_med) / p_med if p_med else float("nan")
            v = verdict(spec, parent, change, wins, len(complete))
            if v == "REGRESSION":
                status = 1
            print("%-16s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %3d/%-2d %+8.1f%%  %s" % (
                name, p_med, p_q1, p_q3, c_med, c_q1, c_q3, wins,
                len(complete), 100 * delta, v))
        for seed in sorted({r["seed"] for r in rows}):
            prints = {}  # fingerprint -> sides that produced it
            for r in rows:
                if r["seed"] == seed:
                    key = json.dumps(r["fingerprint"], sort_keys=True)
                    prints.setdefault(key, set()).add(r["side"])
            if len(prints) == 1:
                sides = sorted(next(iter(prints.values())))
                print("seed %d fingerprint: %s" % (
                    seed, "identical" if len(sides) == 2 else "only " + sides[0]))
                continue
            status = 1
            fps = [json.loads(k) for k in prints]
            keys = sorted(set().union(*fps))
            diff = [k for k in keys if len({json.dumps(fp.get(k)) for fp in fps}) > 1]
            print("seed %d fingerprint: DIFFERS in %s" % (seed, ", ".join(diff)))
        print()
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run alternating parent/change pairs")
    r.add_argument("--parent", required=True, help="parent checkout")
    r.add_argument("--change", required=True, help="change checkout")
    r.add_argument("--workload", action="append", required=True,
                   help="workload name (repeatable)")
    r.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,5,9")
    r.add_argument("--seconds", type=float, default=25)
    r.add_argument("--build-root",
                   help="build each side under <dir>/parent and <dir>/change")
    r.add_argument("--out", required=True, help="JSON-lines file to append to")
    rep = sub.add_parser("report", help="summarize a results file")
    rep.add_argument("results")
    rep.add_argument("--spec", help="BENCHMARK.json (default: this checkout's)")
    args = p.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
