#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs the benchmark command several times per workload and seed and reports
every end-to-end metric's median and quartiles (Python's
statistics.quantiles with n=4). The check fails when a metric's spread,
(q3 - q1) / median, exceeds its bound in BENCHMARK.json.

    python3 perfbench/steady.py                       # seeds 1 and 7, 10 runs each
    python3 perfbench/steady.py --workload pal2-churn --seed 7 --runs 5
    python3 perfbench/steady.py --out a.json           # keep the results
    python3 perfbench/steady.py --compare a.json       # second set vs first

Every run of one seed replays the same inputs, so a spread is the host's
noise alone. The benchmark reports host times at a reference host speed
(see perfbench/README.md); its "raw" line gives the same metrics in plain
host time, and their spread is printed beside the reported one.

Seed 1 is the default seed and seed 7 the held-out one: a later claim must
hold on both. The pal-* workloads ignore the seed, so one seed is enough
for them. With --compare, each metric's median must also be no worse than
the earlier set's median for the same workload and seed by more than the
bound. Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys

DEFAULT_SEED, HELD_OUT_SEED = 1, 7


def run_once(command, workload, seed):
    args = command + ["--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output checks failed:\n{proc.stdout[-2000:]}")
    raw = next(json.loads(l[len("  raw "):]) for l in lines if l.startswith("  raw {"))
    return {name: m["value"] for name, m in result["metrics"].items()}, raw


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"), "values": values}


def worse_by(metric, new, old):
    """Relative change of `new` against `old` in the metric's bad direction."""
    if metric["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default all)")
    p.add_argument("--seed", type=int, action="append",
                   help=f"seed to repeat (repeatable; default {DEFAULT_SEED} and {HELD_OUT_SEED})")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", help="write the results as JSON")
    p.add_argument("--compare", help="results JSON of an earlier set")
    a = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    seeds = a.seed or [DEFAULT_SEED, HELD_OUT_SEED]
    earlier = {}
    if a.compare:
        with open(a.compare) as f:
            earlier = json.load(f)

    results, failures = {}, []
    for w in workloads:
        results[w] = {}
        for seed in seeds:
            runs, raws = [], []
            for i in range(a.runs):
                values, raw = run_once(bench["command"], w, seed)
                runs.append(values)
                raws.append(raw)
                print(f"{w} seed {seed} run {i + 1}: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in values.items()), flush=True)
            before = earlier.get(w, {}).get(str(seed))
            results[w][str(seed)] = {}
            print(f"\n{w} seed {seed}: {a.runs} runs of {bench['run_seconds']} s")
            print(f"  {'metric':<22} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} "
                  f"{'raw':>8} {'bound':>6}")
            for name, m in metrics.items():
                s = summarize([r[name] for r in runs])
                raw_spread = "-"
                if name in raws[0]:
                    s["raw"] = summarize([r[name] for r in raws])
                    raw_spread = f"{s['raw']['spread']:.4f}"
                results[w][str(seed)][name] = s
                verdict = "ok" if s["spread"] <= m["bound"] else "SPREAD"
                line = (f"  {name:<22} {s['q1']:>12.6g} {s['median']:>12.6g} {s['q3']:>12.6g} "
                        f"{s['spread']:>8.4f} {raw_spread:>8} {m['bound']:>6}")
                if before:
                    d = worse_by(m, s["median"], before[name]["median"])
                    line += f"  vs earlier {d:+.4f}"
                    if d > m["bound"]:
                        verdict = "WORSE"
                print(f"{line}  {verdict}")
                if verdict != "ok":
                    failures.append(f"{w} seed {seed} {name}: {verdict}")
            print()

    if a.out:
        with open(a.out, "w") as f:
            json.dump(results, f, indent=1)
    if failures:
        print("steadiness check FAILED: " + "; ".join(failures))
        sys.exit(1)
    print("steadiness check passed")


if __name__ == "__main__":
    main()
