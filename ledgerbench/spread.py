#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 ledgerbench/spread.py WORKLOAD [--seeds 1,2,3] [--trace 0|1]

Runs the command in BENCHMARK.json from the repository root once per seed
and prints, per metric, the median, the interquartile range as a share of
the median (statistics.quantiles, n=4) and the metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", seed,
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        start = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True)
        took = time.time() - start
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {took:.1f} s", file=sys.stderr)
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = m.get("bound")
        flag = "" if bound is None or spread < bound / 3 else "  <-- over bound/3"
        print(f"{m['name']:40s} median {med:14.4f} {m['unit']:6s} spread {spread:7.2%}"
              + (f" bound {bound:.2f}" if bound is not None else "") + flag)
        print("    " + " ".join(f"{x:.4g}" for x in v))


if __name__ == "__main__":
    main()
