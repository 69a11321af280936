#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/prove.py [--workloads sweep,flux] [--runs 10] [--seed0 1]
                               [--trace 0|1] [--record perfbench/trajectory.jsonl]

For every workload it runs ``BENCHMARK.json``'s command once per seed
(seed0, seed0+1, ...), then prints, per metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) / median next to the
metric's bound. ``--record`` appends one JSON line per workload (commit,
environment, seeds, median and quartiles) to a trajectory file.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(bench, workload, seed, trace):
    args = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    env = next((json.loads(line)["env"] for line in lines if line.startswith('{"env"')), {})
    env.pop("seed", None)  # a run set records its seed range instead
    return json.loads(lines[-1]), env


def summarize(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, help="trajectory file to append to")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    all_ok = True
    for workload in args.workloads.split(","):
        results, env = [], None
        for k in range(args.runs):
            result, env = run_once(bench, workload, args.seed0 + k, args.trace)
            results.append(result)
            print(f"# {workload} seed {args.seed0 + k}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        for metric, info in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(metric)
            steady = bound is None or metric == "setup_s" or spread <= bound / 3
            all_ok &= steady
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "unit": info["unit"]}
            print(f"{workload:14s} {metric:40s} {med:>14.6g} {info['unit']:10s} "
                  f"spread {spread:7.4f}" + (f"  bound {bound}" if bound is not None else "")
                  + ("" if steady else "  NOT STEADY"))
        all_ok &= all(r["correct"] for r in results)
        if args.record:
            entry = {"workload": workload, "trace": args.trace, "runs": args.runs,
                     "seeds": [args.seed0, args.seed0 + args.runs - 1],
                     "run_seconds": bench["run_seconds"], "env": env,
                     "failed": sum(r["failed"] for r in results),
                     "attempted": sum(r["attempted"] for r in results), "metrics": summary}
            with open(args.record, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
