#!/usr/bin/env python3
"""Build and run the Harmonia benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <fleet_churn|cmd_mix|l4lb_imix> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the library from src/
plus the benchmark binary, Release) into $CARGO_TARGET_DIR, default
.bench_build. Every call then clears the HARMONIA_* switches that change
what the library executes and runs the binary. Its stdout passes through
unchanged; the last line is the result object. --trace 1 also writes the
traced pass's spans to <build dir>/spans/<workload>.tsv.

Exit status: 0 when every output check passed, 1 when one failed (the
result line still prints), 2 when the benchmark could not build or run.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_churn", "cmd_mix", "l4lb_imix")
PINNED_ENV = ("HARMONIA_SIM_THREADS", "HARMONIA_SIM_AUDIT",
              "HARMONIA_TRACE_CAP", "HARMONIA_BENCH_SCALE",
              "HARMONIA_CHAOS_SEED")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build")


def build(out):
    """Configure once, then bring the binary up to date."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" %
                             " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2

    env = dict(os.environ)
    for var in PINNED_ENV:
        if env.pop(var, None) is not None:
            print("# cleared %s for the run" % var)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, args.workload + ".tsv")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s timed out\n" % args.workload)
        return 2
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write("run.py: perfbench exited %d\n" % proc.returncode)
        return 2
    last = proc.stdout.strip().splitlines()[-1]
    return 0 if '"correct": true' in last else 1


if __name__ == "__main__":
    sys.exit(main())
