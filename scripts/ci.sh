#!/usr/bin/env bash
# The full CI gate, as run before merging a PR:
#
#   1. lint:   tools/cg-analyze (+ clang-tidy when installed) --
#              call-graph-aware world/domain taint + determinism audit
#              over src/, gated against the committed suppression
#              baseline (tools/cg-analyze-baseline.json), plus the
#              absorbed cg-lint rules: stat registration, tracepoint
#              catalog, hot-path containers, stat-handle caching,
#              include guards. Any non-baselined finding fails CI.
#   2. tier-1: configure + build the primary tree and run every test
#   3. chaos:  re-run the fault-injection suites by name (unit fault
#              plans, full-testbed chaos runs, and the bench smokes
#              that drive fig7 / ext_fault_recovery under a plan) —
#              redundant with step 2 but kept as a separate, fast gate
#              so fault-injection regressions are named in CI output
#   4. check:  the isolation-checker gate --
#                a. fig7 under --check twice; both runs must succeed
#                   and print byte-identical tables (the checker is
#                   pure observation and replays deterministically)
#                b. the must-fire suite: a seeded scrub-skip fault MUST
#                   produce a leak edge, proving the checker can
#                   actually fail a run (a checker that cannot fire is
#                   worse than none)
#   5. digests: byte-identity gate -- corgi-bench's phase digests at
#              seed 1 (a hash of every simulated output of its
#              workloads, ~30 s) must equal corgi-bench/golden_digests.txt,
#              so a change meant to be behaviour-neutral that drifts any
#              output fails here
#   6. perf:   tools/perf-gate -- build Release and compare
#              sim_microbench events/sec against the committed
#              BENCH_PR<N>.json baseline; >10% regression fails. The
#              gate skips itself (warning, exit 0) on non-Release or
#              sanitizer builds, where throughput is meaningless.
#   7. sanitize: rebuild under ASan+UBSan and run the whole suite
#   8. tsan:   rebuild under ThreadSanitizer and run the threaded
#              suites (ParallelRunner sweeps) with scripts/tsan.supp
#
# Usage: scripts/ci.sh [--skip-sanitize] [--skip-tsan] [--skip-perf]
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_SANITIZE=0
SKIP_TSAN=0
SKIP_PERF=0
for arg in "$@"; do
    case "$arg" in
      --skip-sanitize) SKIP_SANITIZE=1 ;;
      --skip-tsan) SKIP_TSAN=1 ;;
      --skip-perf) SKIP_PERF=1 ;;
      *)
        echo "usage: scripts/ci.sh [--skip-sanitize] [--skip-tsan]" \
             "[--skip-perf]" >&2
        exit 2
        ;;
    esac
done

echo "==> [1/8] lint (cg-analyze + clang-tidy when available)"
scripts/lint.sh

echo "==> [2/8] tier-1 build + test"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "==> [3/8] chaos gate (fault injection + recovery)"
ctest --test-dir build --output-on-failure -R '[Cc]haos|FaultPlan'
echo "  --> serving-path open-loop smoke (redundant with step 2, but"
echo "      named so a serving-path regression is visible in CI output)"
ctest --test-dir build --output-on-failure -R 'bench_openloop'
echo "  --> churn soak smoke: short deterministic create/migrate/"
echo "      hotplug/destroy soak, all fault sites armed, checker on;"
echo "      run twice and diffed (bit-identical replay is the gate)"
ctest --test-dir build --output-on-failure -R 'bench_soak_smoke'
build/bench/ext_soak_churn --quick --check > build/soak_replay_a.txt
build/bench/ext_soak_churn --quick --check > build/soak_replay_b.txt
diff build/soak_replay_a.txt build/soak_replay_b.txt

echo "==> [4/8] isolation-checker gate"
echo "  --> --check smoke + replay determinism (fig7)"
build/bench/fig7_multi_vm --check > build/check_fig7_a.txt
build/bench/fig7_multi_vm --check > build/check_fig7_b.txt
diff build/check_fig7_a.txt build/check_fig7_b.txt
echo "  --> must-fire: seeded scrub-skip fault raises a leak edge"
ctest --test-dir build --output-on-failure -R 'CheckMustFire'

echo "==> [5/8] byte-identity gate (corgi-bench digests, seed 1)"
python3 corgi-bench/run.py --digests --seed 1 > build/digests_seed1.txt
grep -v '^#' corgi-bench/golden_digests.txt | diff - build/digests_seed1.txt

if [ "$SKIP_PERF" = 1 ]; then
    echo "==> [6/8] perf gate: skipped (--skip-perf)"
else
    echo "==> [6/8] perf gate (sim_microbench vs committed baseline)"
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release -j "$(nproc)"
    tools/perf-gate --build-dir build-release
fi

if [ "$SKIP_SANITIZE" = 1 ]; then
    echo "==> [7/8] sanitize: skipped (--skip-sanitize)"
else
    echo "==> [7/8] sanitize build + test"
    scripts/sanitize.sh
fi

if [ "$SKIP_TSAN" = 1 ]; then
    echo "==> [8/8] tsan: skipped (--skip-tsan)"
else
    echo "==> [8/8] tsan build + threaded suites"
    scripts/sanitize.sh --tsan -R 'Parallel|Sweep|Request'
fi

echo "==> CI green"
