#!/usr/bin/env python3
"""Stability report for the benchmark described by BENCHMARK.json.

Runs each workload repeatedly, one process per run and another seed each
time, and prints every metric's median, quartiles and spread (the
interquartile distance as a share of the median) next to its bound, with
nproc, git revision, seeds and the data directory's filesystem type.
With --sets 2 it repeats the whole set, shows the larger of the two
sets' spreads and how far the second set's medians moved from the
first's. Every metric with a bound, setup_s included, is flagged OVER
when its spread exceeds the bound, >1/3 when it exceeds a third of it,
and MOVED when the second median is worse than the first by more than
the bound.

    python3 perfbench/stability.py                       # 10 runs, all workloads
    python3 perfbench/stability.py --workloads ecce --runs 5
    python3 perfbench/stability.py --trace 1 --runs 3     # per-layer figures

Run it from anywhere; it runs the benchmark command from the repository
root, exactly as BENCHMARK.json names it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    context = dict(kv.split("=", 1) for kv in lines[0].split() if "=" in kv)
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{proc.stdout[-3000:]}")
    return result, context


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse(spec, first, second):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better), in the metric's direction."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if spec["better"] == "lower" else -change


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = ap.parse_args()

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = [args.seed_base + i for i in range(args.runs)]
    print(f"nproc={os.cpu_count()} rev={git_rev()} seeds={seeds[0]}..{seeds[-1]} "
          f"seconds={args.seconds} trace={args.trace}")
    worst = 0.0
    moved_over = []
    for w in args.workloads:
        sets = []
        for s in range(args.sets):
            values = {}
            for seed in seeds:
                result, context = run_once(spec, w, seed, args.seconds, args.trace)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                shown = list(result["metrics"].items())[:6]
                print(f"  {w} seed {seed}: " + ", ".join(f"{n} {m['value']:.4g}" for n, m in shown),
                      file=sys.stderr, flush=True)
            sets.append(values)
        print(f"\n== {w}  (fs={context.get('data_fs', '?')}, {args.runs} runs x {args.sets} sets)")
        print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'moved':>8}")
        for m in metric_specs:
            name = m["name"]
            if any(not values.get(name) for values in sets):
                print(f"{name:40} missing")
                continue
            stats = [quartiles(values[name]) for values in sets]
            # The largest spread over the sets, each set judged alone.
            spread = max((q3 - q1) / abs(med) if med else 0.0 for q1, med, q3 in stats)
            q1, med, q3 = stats[0]
            bound = m.get("bound")
            moved = ""
            flag = ""
            if len(sets) == 2:
                moved = f"{(stats[1][1] - med) / abs(med) if med else 0.0:+.3f}"
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  OVER" if spread > bound else ("  >1/3" if spread > bound / 3 else "")
                if len(sets) == 2 and worse(m, med, stats[1][1]) > bound:
                    flag += "  MOVED"
                    moved_over.append(f"{w}/{name}")
            print(f"{name:40} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                  f"{bound if bound is not None else '':>6} {moved:>8}{flag}")
    if not args.trace:
        print(f"\nworst spread / bound: {worst:.2f}")
        if args.sets == 2:
            print(f"medians worse by more than the bound in set 2: {', '.join(moved_over) or 'none'}")


if __name__ == "__main__":
    main()
