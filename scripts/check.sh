#!/usr/bin/env bash
# Build gate for the concurrent subsystems (src/parallel, src/server) and
# the vectorized execution path (MAGICDB_TEST_BATCH_SIZE sweeps rerun the
# full suite tuple-at-a-time and at an odd batch size; the default runs
# cover the 1024-row batch mode) and the adaptive re-optimization path
# (MAGICDB_TEST_REOPT_QERROR sweeps rerun the full suite with feedback-driven
# plan restarts forced maximally aggressive and explicitly disabled, under
# Release and TSAN — restarts must never change results and must be race-free
# when the parallel retry loop re-plans gangs of replicas):
#   1. Release build, full test suite (correctness + cost-identity tests),
#      plus a smoke run of bench_parallel_scaling (DoP {1,2}) whose
#      byte-identity and counter-identity assertions cover the parallel
#      aggregation merge on real query shapes;
#   2. ThreadSanitizer build, full test suite (barrier/steal/merge,
#      partitioned-aggregate staging, and admission/plan-cache/cancellation
#      races), 20 repeats of the concurrent metric-scrape test, plus the
#      same bench smoke under TSAN;
#   3. AddressSanitizer+UndefinedBehaviorSanitizer build, full test suite
#      (lifetime bugs in pooled plan instances, cancellation unwinds, and
#      UB anywhere; MAGICDB_SANITIZE=address enables both).
# The Release and ASan+UBSan builds also print the optimizer-complexity
# table of bench_sec3_opt_complexity (stars of up to 8 inputs).
# The Release build also runs every magicbench workload (the repository
# benchmark, magicbench/run.py) for 3 s at seed 1 and fails unless every
# query is correct and none failed.
# Every build also smoke-runs bench_server_throughput, whose closed-loop and
# streaming-cursor sections assert byte-identity against Database::Run and
# the cursor queue's bounded-memory contract while racing sessions on the
# shared pool.
#
# A second trio of builds repeats Release/TSAN/ASan+UBSan with
# -DMAGICDB_FAILPOINTS=ON and runs the chaos suite (fault injection at every
# threaded site, memory-governor breaches, park/resume delay perturbation,
# spill-file I/O faults, DDL catalog-mutation faults) plus the server stress
# tests: any injected fault must leave the service with zero leaked tickets,
# gang slots, or cursors — clean under both sanitizers. The default builds
# above stay byte-identical because the failpoint macros compile to nothing
# without the option.
#
# Finally, a low-memory chaos sweep reruns the FULL test suite inside the
# Release and ASan+UBSan failpoint builds with a small default per-query
# memory limit and a spill directory injected via environment, and with
# delay failpoints armed on every spill I/O site. Every governed query in
# the suite that crosses the small limit now takes the out-of-core paths
# with perturbed spill-I/O timing; results must stay byte-identical and
# ASan must see no lifetime bugs in the spill readers/writers. Tests that
# pin their own limit or spill dir are unaffected (explicit options win
# over the environment). The Release low-memory sweep runs twice, the second
# time with re-optimization forced aggressive, so re-planning and the
# degrade-to-sequential-spill path meet in one run.
#
# An overload chaos sweep then reruns the overload suite (and the exact-count
# server stress test) inside the Release and TSAN failpoint builds with a
# tiny admission-queue high-water injected via environment and delay
# failpoints armed on the shed and disk-budget decision points: the service
# must shed instead of queueing unboundedly, Query()'s retry loop must
# absorb the rejections, and survivors must stay byte-identical with zero
# leaked tickets, gang slots, cursors, or disk-budget bytes.
# Every section runs even when an earlier one fails; a summary at the end
# lists each section's status, and the script exits non-zero if any failed.
# Usage: scripts/check.sh [extra ctest args...]
set -uo pipefail
cd "$(dirname "$0")/.." || exit 1

JOBS="$(nproc 2>/dev/null || echo 2)"

RESULTS=()
FAILURES=0
# Runs one named section (the remaining arguments are its command) and
# records whether it passed.
section() {
  local name="$1"
  shift
  echo "=== ${name} ==="
  if "$@"; then
    RESULTS+=("PASS  ${name}")
  else
    RESULTS+=("FAIL  ${name}")
    FAILURES=$((FAILURES + 1))
    echo "*** section failed: ${name}"
  fi
}

# Configures and builds one tree: build_tree <dir> <cmake args...>.
build_tree() {
  local dir="$1"
  shift
  cmake -B "${dir}" -S . "$@" >/dev/null && cmake --build "${dir}" -j "${JOBS}"
}

# Full suite of one tree under optional env assignments:
# suite <dir> [VAR=value...] [-- extra ctest args].
suite() {
  local dir="$1"
  shift
  env "$@" ctest --test-dir "${dir}" --output-on-failure --timeout 120 \
      -j "${JOBS}" "${CTEST_ARGS[@]}"
}
CTEST_ARGS=("$@")

section "Release build" build_tree build-release -DCMAKE_BUILD_TYPE=Release
section "Release suite" suite build-release

# Vectorized-execution sweep: the default run above executes every query
# in 1024-row batches; rerun the full suite with batching forced off
# (tuple-at-a-time) and at a deliberately awkward batch size. Results must
# be byte-identical in all three modes — the suite's identity assertions
# do the comparing.
section "Release suite, batching forced off" \
  suite build-release MAGICDB_TEST_BATCH_SIZE=0
section "Release suite, batch size 7" \
  suite build-release MAGICDB_TEST_BATCH_SIZE=7

# Adaptive re-optimization sweep: rerun the full suite with runtime
# cardinality feedback forced maximally aggressive (any estimation error
# restarts planning at every pipeline breaker) and explicitly off. The
# suite's byte-identity assertions verify that restart-based re-planning
# never changes results; only tests that pin their own threshold opt out.
section "Release suite, re-optimization forced aggressive" \
  suite build-release MAGICDB_TEST_REOPT_QERROR=1.0
section "Release suite, re-optimization forced off" \
  suite build-release MAGICDB_TEST_REOPT_QERROR=0

section "Parallel-scaling bench smoke (Release, DoP 2)" \
  ./build-release/bench/bench_parallel_scaling --smoke

section "Server-throughput bench smoke (Release)" \
  ./build-release/bench/bench_server_throughput --smoke

# Planning-effort table (stars of up to 8 inputs, three optimizer
# configurations, 15 plans each): its exact effort counts must not vary
# between repetitions, and it exercises the lazily built DP entries on
# wider blocks than the test suite's plan corpus.
section "Optimizer-complexity table (Release)" \
  ./build-release/bench/bench_sec3_opt_complexity --benchmark_filter=NONE

# Repository-benchmark smoke: every magicbench workload for 3 s at seed 1.
# Each query passes the benchmark's own gates (DoP identity on analytic,
# the magic-off oracle on views_adhoc, spill identity under a 1 MiB limit on
# analytic_spill); any wrong answer or failed query fails the check.
magicbench_smoke() {
  CARGO_TARGET_DIR=build-release \
    python3 magicbench/run.py --workload "$1" --seed 1 \
        --seconds 3 --trace 0 | tail -n 1 |
    python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
if not r["correct"] or r["failed"] != 0:
    sys.exit("magicbench smoke failed: correct=%s failed=%s of %s"
             % (r["correct"], r["failed"], r["attempted"]))
print("magicbench smoke: %d queries, all correct" % r["attempted"])'
}
for workload in views_adhoc analytic analytic_spill; do
  section "magicbench smoke: ${workload} (Release, seed 1, 3 s)" \
    magicbench_smoke "${workload}"
done

section "ThreadSanitizer build" build_tree build-tsan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMAGICDB_SANITIZE=thread
section "ThreadSanitizer suite" suite build-tsan
section "TSAN suite, re-optimization forced aggressive" \
  suite build-tsan MAGICDB_TEST_REOPT_QERROR=1.0

# Metric scrapes call read-through gauges that take service locks (the
# admission mutex, the pool, the spill area) while queries run: repeat the
# concurrent-scrape test so TSAN sees many scrape/query interleavings.
section "TSAN concurrent metric scrapes (20 repeats)" \
  ./build-tsan/tests/magicdb_tests \
    --gtest_filter=ServerStressTest.ConcurrentScrapesSeeMonotoneCounters \
    --gtest_repeat=20

section "Parallel-scaling bench smoke (TSAN, DoP 2)" \
  ./build-tsan/bench/bench_parallel_scaling --smoke

section "Server-throughput bench smoke (TSAN)" \
  ./build-tsan/bench/bench_server_throughput --smoke

section "AddressSanitizer+UBSan build" build_tree build-asan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMAGICDB_SANITIZE=address
section "AddressSanitizer+UBSan suite" suite build-asan
section "ASan+UBSan suite, batching forced off" \
  suite build-asan MAGICDB_TEST_BATCH_SIZE=0

section "Server-throughput bench smoke (ASan+UBSan)" \
  ./build-asan/bench/bench_server_throughput --smoke

section "Optimizer-complexity table (ASan+UBSan)" \
  ./build-asan/bench/bench_sec3_opt_complexity --benchmark_filter=NONE

CHAOS_FILTER='ChaosTest.*:ExecFailpointTest.*:MemoryGovernorTest.*:MemoryTrackerTest.*:ServerStressTest.*:SpillChaosTest.*:DdlChaosTest.*:OverloadTest.*:OverloadFairnessTest.*:OverloadChaosTest.*'

# Overload chaos sweep: a tiny admission queue high-water injected via the
# environment (applied only where shed_queue_depth is unset) plus delay
# failpoints on the shed and disk-budget-charge decision points. Query()'s
# shed-retry loop must absorb the rejections — results stay byte-identical
# and nothing leaks. ServerStressTest's exact-count accounting rides along:
# sheds are refusals at the door, not submitted/failed queries.
OVERLOAD_FILTER='OverloadTest.*:OverloadChaosTest.*:ServerStressTest.ConcurrentSessionsMatchSequentialBaseline'
OVERLOAD_ENV=(
  MAGICDB_TEST_SHED_QUEUE_DEPTH=2
  MAGICDB_FAILPOINT_DELAYS='admission.shed:20,spill.budget.charge:20'
)

# Env for the low-memory chaos sweep: an 8 MiB default query memory limit
# (applied only where QueryServiceOptions leaves the limit unset), a shared
# spill directory (applied only where spill_dir is unset), and delay-only
# failpoints on the spill I/O sites.
LOWMEM_SPILL_DIR="$(mktemp -d)"
trap 'rm -rf "${LOWMEM_SPILL_DIR}"' EXIT
LOWMEM_ENV=(
  MAGICDB_TEST_QUERY_MEMORY_LIMIT=8388608
  "MAGICDB_TEST_SPILL_DIR=${LOWMEM_SPILL_DIR}"
  MAGICDB_FAILPOINT_DELAYS='spill.write:20,spill.read:20,spill.partition.open:20'
)

section "Chaos build (Release + failpoints)" build_tree build-chaos \
  -DCMAKE_BUILD_TYPE=Release -DMAGICDB_FAILPOINTS=ON
section "Chaos suite (Release + failpoints)" \
  ./build-chaos/tests/magicdb_tests --gtest_filter="${CHAOS_FILTER}"

section "Low-memory chaos sweep (Release + failpoints, full suite)" \
  env "${LOWMEM_ENV[@]}" ./build-chaos/tests/magicdb_tests

# The query driver is where re-planning meets the memory-pressure degrade
# (a gang that cannot spill reruns sequentially, re-planned under the
# attempt's overlay): rerun the low-memory sweep with re-optimization forced
# maximally aggressive so both paths are exercised together.
section "Low-memory chaos sweep, re-optimization forced aggressive (Release + failpoints, full suite)" \
  env "${LOWMEM_ENV[@]}" MAGICDB_TEST_REOPT_QERROR=1.0 \
    ./build-chaos/tests/magicdb_tests

section "Overload chaos sweep (Release + failpoints)" \
  env "${OVERLOAD_ENV[@]}" \
    ./build-chaos/tests/magicdb_tests --gtest_filter="${OVERLOAD_FILTER}"

section "Chaos build (TSAN + failpoints)" build_tree build-chaos-tsan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMAGICDB_SANITIZE=thread \
  -DMAGICDB_FAILPOINTS=ON
section "Chaos suite (TSAN + failpoints)" \
  ./build-chaos-tsan/tests/magicdb_tests --gtest_filter="${CHAOS_FILTER}"

section "Overload chaos sweep (TSAN + failpoints)" \
  env "${OVERLOAD_ENV[@]}" \
    ./build-chaos-tsan/tests/magicdb_tests --gtest_filter="${OVERLOAD_FILTER}"

section "Chaos build (ASan+UBSan + failpoints)" build_tree build-chaos-asan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMAGICDB_SANITIZE=address \
  -DMAGICDB_FAILPOINTS=ON
section "Chaos suite (ASan+UBSan + failpoints)" \
  ./build-chaos-asan/tests/magicdb_tests --gtest_filter="${CHAOS_FILTER}"

section "Low-memory chaos sweep (ASan+UBSan + failpoints, full suite)" \
  env "${LOWMEM_ENV[@]}" ./build-chaos-asan/tests/magicdb_tests

echo "=== Summary ==="
printf '%s\n' "${RESULTS[@]}"
if ((FAILURES > 0)); then
  echo "${FAILURES} of ${#RESULTS[@]} sections failed."
  exit 1
fi
echo "All checks passed."
