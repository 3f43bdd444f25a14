#!/usr/bin/env python3
"""End-to-end benchmark of the collector and figure-scan path.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test     # the checks' own tests

Run from the repository root. Builds e2ebench (a CMake package that
compiles ../src) into .bench_build/e2ebench on first use, runs one workload,
and prints as its last line one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics, or with --trace 1 the per-layer metrics
summarize.py derives from the span dump). The line before it is the
machine/build stamp. Exits non-zero when the build fails or a check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("ingest_raw_1lane", "ingest_anon_paced", "figure_report")
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import summarize  # noqa: E402


def fail(message, code=1):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}; run from a checkout", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: .bench_build/e2ebench/build.log)")


def self_test():
    build(["e2ebench_tests"])
    binary = os.path.join(BUILD, "e2ebench_tests")
    if not os.path.isfile(binary):
        fail("GTest not found; the checks' tests were not built")
    sys.exit(subprocess.run([binary]).returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--lanes", type=int, default=0,
                    help="reference figures only: scan lanes of figure_report, "
                         "wire-plane lanes of ingest_raw_1lane")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None:
        ap.error("--workload is required")

    build(["e2ebench"])
    work = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(BUILD, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    if args.lanes:
        cmd += ["--lanes", str(args.lanes)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            fail(f"e2ebench printed no result (exit {proc.returncode})")
        stamp = json.loads(lines[-2])
        result = json.loads(lines[-1])
        if args.trace:
            result["metrics"] = summarize.per_layer(os.path.join(work, "spans.csv"),
                                                    args.workload)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(stamp))
    for err in stamp.get("errors", []):
        print(f"e2ebench: check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
