#!/usr/bin/env python3
"""Record a before/after benchmark trajectory point as BENCH_<name>.json.

Exports two revisions of the repository (a base, normally the parent
commit, and a change, by default the working tree) into a work
directory, builds the benchmark binary of each from its own source, and
runs interleaved pairs: the same seed for both arms in a pair, with the
arm that runs first alternating from pair to pair. Every run is one
`perfbench` process with the arguments BENCHMARK.json's command takes.

For every workload the output file records, beside nproc, both revisions
and the data filesystem type, each end-to-end metric's median, quartiles
and IQR per arm, the change's pair wins and the median of the per-pair
ratios, with a verdict: gain (better in at least 90% of the pairs,
medians apart by more than the base's IQR), worse (median worse than
the base's by more than the metric's bound), unresolved (the base's own
spread, IQR over median, exceeds the bound and the arms' runs overlap)
or within bound. Optional traced pairs add the per-layer metrics. A run
that fails its output checks is recorded and makes the script exit
with status 1.

    python3 scripts/bench_record.py --out BENCH_next.json \\
        --workloads replicated --pairs 10 --seconds 30 --traced-pairs 3
    python3 scripts/bench_record.py --base HEAD~1 --change HEAD --out BENCH_x.json

The work directory (default: a fresh temporary directory) holds the two
exported trees and their build outputs; pass --work to reuse builds.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"
# Metrics printed after each pair, for watching a long series.
SHOWN = ["read_p50_ms", "write_p90_ms", "ops_per_s"]
SHOWN_TRACED = ["cluster.replica_read_share", "process.cpu_ms_per_op"]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def resolve(rev):
    """(label, commit to export, description) for a revision argument.
    WORKTREE is the working tree with its tracked and staged changes."""
    if rev == WORKTREE:
        head = git("rev-parse", "HEAD")
        stash = git("stash", "create")
        diff = subprocess.run(["git", "diff", "HEAD"], cwd=ROOT, capture_output=True,
                              check=True).stdout
        desc = {"rev": WORKTREE, "head": head,
                "diff_sha256": hashlib.sha256(diff).hexdigest() if stash else None}
        return "worktree", stash or head, desc
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    return commit[:12], commit, {"rev": rev, "commit": commit}


def export(commit, dest):
    if os.path.isdir(dest):
        return
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"git archive {commit} failed")


def build(tree):
    manifest = os.path.join(tree, "perfbench", "Cargo.toml")
    print(f"building {manifest}", flush=True)
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", manifest], check=True)
    return os.path.join(tree, "perfbench", "target", "release", "perfbench")


def run_once(binary, tree, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, {}, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(lines[-1])
    context = dict(kv.split("=", 1) for kv in lines[0].split() if "=" in kv)
    problem = None
    if not result["correct"] or result["failed"]:
        problem = "incorrect run: " + "; ".join(lines[1:-1])[-2000:]
    return result, context, problem


def metric_values(result):
    """name -> value from one result line."""
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def compare(spec, base, change):
    """Pairwise comparison of one metric, in its better direction."""
    better = spec.get("better", "lower")
    sign = 1 if better == "lower" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    ratios = [c / b for b, c in zip(base, change) if b]
    b, c = summary(base), summary(change)
    gain = sign * (b["median"] - c["median"])
    out = {
        "better": better,
        "base": b,
        "change": c,
        "change_wins": wins,
        "pairs": len(base),
        "median_ratio": statistics.median(ratios) if ratios else None,
        "clear_gain": wins >= math.ceil(0.9 * len(base)) and gain > b["iqr"],
    }
    if "bound" in spec:
        bound = spec["bound"]
        spread = b["iqr"] / abs(b["median"]) if b["median"] else 0.0
        worse_share = -gain / abs(b["median"]) if b["median"] else 0.0
        separated = max(sign * x for x in change) < min(sign * x for x in base)
        out["bound"] = bound
        out["base_spread"] = spread
        out["worse_than_bound"] = worse_share > bound
        if out["clear_gain"]:
            out["verdict"] = "gain"
        elif spread > bound and not separated:
            out["verdict"] = "unresolved"
        else:
            out["verdict"] = "worse" if out["worse_than_bound"] else "within bound"
    return out


def record(args, spec, arms):
    metrics_spec = {m["name"]: m for m in spec["end_to_end"]}
    layer_spec = {m["name"]: m for m in spec["per_layer"]}
    out = {}
    problems = []
    data_fs = set()
    for workload in args.workloads:
        series = {"untraced": ([], []), "traced": ([], [])}
        seeds = []
        for trace, count in ((0, args.pairs), (1, args.traced_pairs)):
            kind = "traced" if trace else "untraced"
            for i in range(count):
                seed = args.seed_base + i
                order = (0, 1) if i % 2 == 0 else (1, 0)
                for arm in order:
                    label, tree, binary = arms[arm]
                    result, context, problem = run_once(binary, tree, workload, seed,
                                                        args.seconds, trace)
                    if problem:
                        problems.append(f"{workload} {kind} seed {seed} {label}: {problem}")
                        print(problems[-1], flush=True)
                    if result is None:
                        sys.exit(1)
                    series[kind][arm].append(metric_values(result))
                    data_fs.add(context.get("data_fs"))
                if trace == 0:
                    seeds.append(seed)
                b, c = series[kind][0][-1], series[kind][1][-1]
                shown = SHOWN_TRACED if trace else SHOWN
                print(f"{workload} {kind} pair {i + 1}/{count} seed {seed}: " + ", ".join(
                    f"{m} {b.get(m, float('nan')):.4g} -> {c.get(m, float('nan')):.4g}"
                    for m in shown), flush=True)
        entry = {"seeds": seeds, "pairs": args.pairs, "traced_pairs": args.traced_pairs}
        for kind, section, specs in (("untraced", "end_to_end", metrics_spec),
                                     ("traced", "per_layer", layer_spec)):
            base_runs, change_runs = series[kind]
            if base_runs:
                entry[section] = {
                    name: compare(m, [r[name] for r in base_runs], [r[name] for r in change_runs])
                    for name, m in specs.items() if name in base_runs[0]}
        out[workload] = entry
    return out, problems, data_fs


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    ap.add_argument("--change", default=WORKTREE,
                    help=f"changed revision, or {WORKTREE} (default) for the working tree")
    ap.add_argument("--out", required=True, help="output file, e.g. BENCH_next.json")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--traced-pairs", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec.get("run_seconds", 30))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--work", help="work directory for exported trees and builds")
    args = ap.parse_args()

    work = args.work or tempfile.mkdtemp(prefix="bench-record-")
    arms, described = [], {}
    for role, rev in (("base", args.base), ("change", args.change)):
        label, commit, desc = resolve(rev)
        tree = os.path.join(work, f"{role}-{commit[:12]}")
        export(commit, tree)
        arms.append((label, tree, build(tree)))
        described[role] = desc

    workloads, problems, data_fs = record(args, spec, arms)
    doc = {
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "data_fs": ", ".join(sorted(str(fs) for fs in data_fs)),
        "seconds": args.seconds,
        "order": "interleaved pairs, same seed per pair, first arm alternating",
        "base": described["base"],
        "change": described["change"],
        "workloads": workloads,
        "problems": problems,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")

    for workload, entry in workloads.items():
        print(f"\n{workload}: {entry['pairs']} pairs, nproc={doc['nproc']}, fs={doc['data_fs']}")
        for section in ("end_to_end", "per_layer"):
            for name, c in entry.get(section, {}).items():
                flag = c.get("verdict", "gain" if c["clear_gain"] else "")
                ratio = c["median_ratio"]
                print(f"  {name:40} {c['base']['median']:>10.4g} -> {c['change']['median']:<10.4g}"
                      f" iqr {c['base']['iqr']:<8.3g} wins {c['change_wins']}/{c['pairs']}"
                      f" ratio {ratio if ratio is None else round(ratio, 3)} {flag}")
    print(f"\nwrote {args.out}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
