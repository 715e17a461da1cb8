#!/usr/bin/env python3
"""corgi-bench: build the simulator in Release and run one benchmark workload.

Run from the repository root:

    python3 corgi-bench/run.py --workload blk-io --seed 1 --seconds 30 --trace 0
    python3 corgi-bench/run.py --workload all          # every workload in turn
    python3 corgi-bench/run.py --selftest              # harness perturbation test
    python3 corgi-bench/run.py --digests --seed 1      # print phase digests

The first call configures and builds `corgi-bench/CMakeLists.txt` into
`.bench_build/corgi-bench` (build output goes to stderr); later calls only
rebuild what changed. The benchmark binary prints a human-readable report
and, as the last line of stdout, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 1` the metrics are the
per-layer ones and the host-time spans are written as Chrome trace_event
JSON under `.bench_build/traces/`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "corgi-bench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "corgi_bench")
GOLDEN = os.path.join(HERE, "golden_digests.txt")
WORKLOADS = ["blk-io", "tick", "churn", "net-rr"]


def fail(msg):
    print("corgi-bench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "workloads", "testbed.hh")):
        fail("simulator sources not found: run from a checkout that has src/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", "-DCG_SANITIZE="])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args):
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--digests", action="store_true")
    a = ap.parse_args()
    if not (a.workload or a.selftest or a.digests):
        ap.error("one of --workload, --selftest, --digests is required")
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    if a.selftest or a.digests:
        rc, _ = run_binary(["--selftest" if a.selftest else "--digests",
                            "--seed", str(a.seed)])
        return rc

    os.makedirs(TRACE_DIR, exist_ok=True)
    names = WORKLOADS if a.workload == "all" else [a.workload]
    results = {}
    for name in names:
        rc, out = run_binary(["--workload", name, "--seed", str(a.seed),
                              "--seconds", str(a.seconds),
                              "--trace", str(a.trace), "--golden", GOLDEN,
                              "--trace-dir", TRACE_DIR])
        lines = out.strip().splitlines()
        if rc != 0 or not lines:
            print("corgi-bench: %s exited with %d" % (name, rc), file=sys.stderr)
            return rc or 1
        results[name] = json.loads(lines[-1])
    if len(names) > 1:
        # One line for the whole set: metrics prefixed by workload.
        merged = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {"%s.%s" % (n, k): v
                              for n, r in results.items()
                              for k, v in r["metrics"].items()}}
        print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
