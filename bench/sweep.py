"""Repeat benchmark runs over seeds and summarise their spread.

    python3 bench/sweep.py --seeds 1-10 [--workloads full-n6,random-n4]
                           [--trace 0] [--seconds 20] [--out FILE] [--label TEXT]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as
a share of the median, next to the metric's bound.  ``--out`` writes every
value and the summary as JSON, under ``trace0`` or ``trace1`` so that both
kinds of sweep can share one file; ``bench/baseline.json`` was written
this way.  Exits 1 if any run failed or reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads as wl


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    result = {"label": args.label, "python": platform.python_version(), "nproc": os.cpu_count(),
              "seconds": args.seconds, "trace": args.trace, "runs": {}, "summary": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            command = [sys.executable, os.path.join(wl.BENCH_DIR, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(command, cwd=wl.ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            run = json.loads(lines[-1])
            ok &= run["correct"]
            runs.append({"seed": seed, **run})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in run["metrics"].items()
                if bounds.get(k) is not None or args.trace), flush=True)
        result["runs"][workload] = runs
        if not runs:
            continue
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        result["summary"][workload] = summary
        print(f"== {workload}: {len(runs)} runs")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:g}" + (
                "  ok" if s["spread"] < bound / 3 else "  WIDE")
            print(f"   {name:36s} median {s['median']:<12.5g} q1 {s['q1']:<12.5g} q3 {s['q3']:<12.5g}"
                  f" spread {s['spread']:.4f}{flag}")
    if args.out:
        merged = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as handle:
                merged = json.load(handle)
        merged[f"trace{args.trace}"] = result
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
