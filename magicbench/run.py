#!/usr/bin/env python3
"""Builds the magicbench binary from source and runs one workload.

Usage, from the root of a checkout:

    python3 magicbench/run.py --workload views_adhoc --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/magicbench (default .bench_build/magicbench),
always as a Release build. Run reports (stamp, every metric, the exact-count
fingerprint, racing counts) are written under its reports/ directory, and the
traced run also writes its spans there. The last line of stdout is the JSON
result: {"correct", "attempted", "failed", "metrics"}.

Two reports of the same seed can be compared with

    python3 magicbench/run.py --compare-fingerprints A.json B.json

which exits non-zero unless the exact-count fingerprints are identical.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "magicbench")


def build(out):
    """Configures and builds the Release binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no magicdb sources next to the benchmark (src/ missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "magicbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "magicbench")


def git_stamp():
    """git sha and dirty flag when the checkout is a git repository."""
    if shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")):
        return "none", "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"], check=True,
                                capture_output=True, text=True).stdout.strip()
        return sha, "1" if status else "0"
    except (subprocess.CalledProcessError, OSError):
        return "none", "unknown"


def source_digest():
    """sha256 over the program and benchmark sources (identifies the code
    measured even where the checkout carries no git metadata)."""
    h = hashlib.sha256()
    for top in ("src", "magicbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def check_result(line, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError("malformed result line")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        got = set(result["metrics"])
        if want != got:
            raise RuntimeError("metrics differ from BENCHMARK.json: missing %s, extra %s"
                               % (sorted(want - got), sorted(got - want)))
    return result


def compare_fingerprints(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    ok = True
    for key in sorted(set(a["fingerprint"]) | set(b["fingerprint"])):
        va, vb = a["fingerprint"].get(key), b["fingerprint"].get(key)
        if va != vb:
            ok = False
            print("fingerprint %s: %s != %s" % (key, va, vb))
    for key in sorted(a.get("racing_counts", {})):
        va, vb = a["racing_counts"][key], b.get("racing_counts", {}).get(key)
        print("racing %s: %s vs %s" % (key, va, vb))
    print("fingerprints %s" % ("identical" if ok else "DIFFER"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare-fingerprints", nargs=2, metavar="REPORT")
    args = p.parse_args()
    if args.compare_fingerprints:
        return compare_fingerprints(*args.compare_fingerprints)
    if not args.workload:
        p.error("--workload is required")

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    sha, dirty = git_stamp()
    reports = os.path.join(out, "reports")
    spill = os.path.join(out, "spill")
    os.makedirs(reports, exist_ok=True)
    os.makedirs(spill, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", reports, "--spill-dir", spill,
           "--stamp", "git_sha=" + sha, "--stamp", "git_dirty=" + dirty,
           "--stamp", "source_digest=" + source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(stdout)
        log("benchmark exited with code %d" % proc.returncode)
        return 2
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, RuntimeError) as e:
        sys.stderr.write(stdout)
        log("bad result line: %s" % e)
        return 2
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
