#!/usr/bin/env python3
"""Runs the benchmark the way BENCHMARK.json declares it and checks that it is steady.

Usage (from the repository root):

    python3 perfbench/prove.py --once            # every workload once: every metric, with its unit
    python3 perfbench/prove.py --once --trace    # traced: per-layer metrics and tracing overhead
    python3 perfbench/prove.py --seeds 1-10 --out perfbench/results/proof-a.json
    python3 perfbench/prove.py --compare perfbench/results/proof-a.json perfbench/results/proof-b.json

A proof run executes every workload once per seed, then once more on a
held-out seed.  It keeps every run's raw values, and for each end-to-end
metric reports the median, the quartiles (statistics.quantiles, n=4) and
the spread: the interquartile distance as a share of the median.  A spread
above the metric's bound (setup_s excepted), or any run whose answers were
wrong, makes the script exit 1.  --compare checks that the second set's
medians are no worse than the first's by more than each metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: no result line (exit {proc.returncode})")
    return {
        "workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
        "wall_s": round(wall, 3), "correct": result["correct"],
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
        "report": [l for l in lines[:-1] if not l.startswith(("listening", "env "))],
    }


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def once(bench, workloads, trace):
    for w in workloads:
        r = run_once(bench, w, 1, trace)
        print(f"== {w} (seed 1, {r['wall_s']} s, correct={r['correct']}, "
              f"fail_share={r['failed'] / max(r['attempted'], 1)} of {r['attempted']})")
        for line in r["report"]:
            # The result line's metrics are printed below, with units.
            if not line.startswith(("end-to-end", "per-layer")):
                print("   " + line)
        for name, value in r["metrics"].items():
            print(f"   {name:<28} {value:>16.6f} {r['units'][name]}")
        if trace:
            # Tracing overhead: the traced run's own end-to-end numbers
            # against an untraced run of the same seed.
            plain = run_once(bench, w, 1, False)
            traced = {}
            for line in r["report"]:
                if line.startswith("traced end-to-end"):
                    name, value = line.split()[2:4]
                    traced[name] = float(value)
            for name, value in plain["metrics"].items():
                over = traced[name] / value - 1 if value else 0.0
                print(f"   tracing overhead {name:<16} untraced {value:<12.6g} "
                      f"traced {traced[name]:<12.6g} {over:+.1%}")


def prove(bench, workloads, seeds, heldout, out):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, ok = [], True
    for w in workloads:
        for seed in seeds + [heldout]:
            r = run_once(bench, w, seed, False)
            runs.append(r)
            print(f"{w} seed {seed}: {r['wall_s']} s correct={r['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items()), flush=True)
            ok &= r["correct"] and r["exit"] == 0
    summary = {}
    for w in workloads:
        main = [r for r in runs if r["workload"] == w and r["seed"] != heldout]
        held = next(r for r in runs if r["workload"] == w and r["seed"] == heldout)
        summary[w] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in main]
            med, q1, q3, s = spread(values)
            dev = held["metrics"][name] / med - 1 if med else 0.0
            steady = name == "setup_s" or s <= bound
            ok &= steady
            summary[w][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": s, "bound": bound,
                "within_bound": steady, "within_third": s <= bound / 3,
                "heldout": held["metrics"][name], "heldout_vs_median": dev,
                "heldout_within_bound": abs(dev) <= bound,
            }
            print(f"{w:<11} {name:<15} median {med:<12.6g} spread {s:7.2%} "
                  f"(bound {bound:.0%}{'' if steady else ' EXCEEDED'}) held-out {dev:+7.2%}")
    doc = {"run_seconds": bench["run_seconds"], "seeds": seeds, "heldout_seed": heldout,
           "nproc": os.cpu_count(), "summary": summary, "runs": runs}
    if out:
        with open(os.path.join(ROOT, out), "w") as f:
            json.dump(doc, f, indent=1)
    return ok


def compare(bench, first, second):
    better = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    a, b = (json.load(open(p))["summary"] for p in (first, second))
    ok = True
    for w in a:
        for name, (direction, bound) in better.items():
            m1, m2 = a[w][name]["median"], b[w][name]["median"]
            worse = (m2 / m1 - 1) if direction == "lower" else (1 - m2 / m1)
            fine = worse <= bound
            ok &= fine
            print(f"{w:<11} {name:<15} {m1:<12.6g} -> {m2:<12.6g} worse by {worse:+7.2%} "
                  f"(bound {bound:.0%}){'' if fine else ' EXCEEDED'}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", help="comma-separated subset (default: all)")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--heldout", type=int, default=1001)
    p.add_argument("--out")
    p.add_argument("--once", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--compare", nargs=2)
    args = p.parse_args()
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    if args.compare:
        sys.exit(0 if compare(bench, *args.compare) else 1)
    if args.once:
        once(bench, workloads, args.trace)
        return
    sys.exit(0 if prove(bench, workloads, seeds_of(args.seeds), args.heldout, args.out) else 1)


if __name__ == "__main__":
    main()
