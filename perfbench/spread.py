#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cmd_mix --seeds 1-10 \
        [--seconds 10] [--trace 0] [--json out.json]

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median, next to the bound BENCHMARK.json gives the metric.
Use it to check the benchmark is steady before relying on a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            sys.exit("seed %d failed:\n%s" % (seed, proc.stdout))
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print("seed %d done" % seed, file=sys.stderr)

    print("%-30s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-30s %14.6g %14.6g %14.6g %8.4f %6s" %
              (name, med, q1, q3, spread,
               "-" if bound is None else bound))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
