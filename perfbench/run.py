#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which pulls in the
repository's own CMake build) into .bench_build/perfbench, runs the
arithmetic self-test, then runs one measurement with pto_perf and passes its
output through. The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the spans are also written to
.bench_build/traces/<workload>-seed<n>.json (Chrome trace-event format).
Exits non-zero without a result line when the build, the self-test or a
correctness check fails. perfbench/README.md documents workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("kv-skip-zipf-rw", "kv-hash-uniform-read", "sim-bst-fig3b")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pto sources next to perfbench/ (expected src/CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs,
         "--target", "pto_perf", "pto_perf_selftest"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the sources the benchmark builds, for provenance where no
    git metadata is available."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    for f in ("CMakeLists.txt",):
        with open(os.path.join(ROOT, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("pto_perf did not end with a JSON result")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has unexpected keys: %s" % sorted(res))
    if res["correct"] is not True or res["failed"] != 0:
        fail("correctness check failed")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("no operations attempted")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)) or v["value"] != v["value"]:
            fail("metric %s is not a number" % k)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    build()
    if subprocess.run([os.path.join(BUILD, "pto_perf_selftest")]).returncode != 0:
        fail("arithmetic self-test failed")

    cmd = [os.path.join(BUILD, "pto_perf"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--source-digest", source_digest()]
    if a.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("pto_perf did not finish within %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode < 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("pto_perf was killed by %s" % signal.Signals(-r.returncode).name)
    if r.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("pto_perf exited with code %d" % r.returncode)
    check_result(lines[-1], a.trace == 1)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    main()
