#!/usr/bin/env python3
"""End-to-end benchmark of the pelta repository: build, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the library
and the benchmark program (Release) under .bench_build/perfbench; later runs
only rebuild what changed. Every workload runs at PELTA_THREADS=2. The last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
record (host fingerprint, the workload's named metrics). A traced run also
writes its spans as Chrome trace-event JSON to
.bench_build/traces/<workload>.trace.json.

Workloads: serve_vit_fp32, serve_mlp_int8_cluster, fl_round,
attack_pgd_shielded; `--workload all` runs each of them in turn, each in its
own process, and exits non-zero if any of them failed. See perfbench/NOTES.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pelta_perfbench")
THREADS = "2"
RUN_TIMEOUT_S = 170
WORKLOADS = ["serve_vit_fp32", "serve_mlp_int8_cluster", "fl_round", "attack_pgd_shielded"]


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pelta_perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result object.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    env = dict(os.environ, PELTA_THREADS=THREADS, PERFBENCH_COMMIT=source_commit())
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_one(w, args, env) for w in workloads]
    # A workload killed by a signal has a negative code: report it as 1.
    failed = [code if code > 0 else 1 for code in codes if code != 0]
    sys.exit(failed[0] if failed else 0)


def run_one(workload, args, env):
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, workload + ".trace.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: workload %s exceeded %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 4


if __name__ == "__main__":
    main()
