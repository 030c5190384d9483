#!/usr/bin/env python3
"""Run the benchmark over several seeds and write bench/BENCH_<label>.json.

    python3 bench/collect.py --label baseline --seeds 1-10

For every workload and seed it runs `run.py --trace 0` once, at the
run_seconds of BENCHMARK.json, then reports
each end-to-end metric as the median and quartiles of its per-seed values,
with the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. It also runs one traced pass per workload (first seed) and
keeps its per-layer metrics. Quartiles are `statistics.quantiles(values, n=4)`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exponent-sweep", "hash-scan", "smooth-iid")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "steady": spread <= bound / 3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    out = {"label": args.label, "seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs, walls = [], []
        for seed in seeds:
            line, wall = _run(workload, seed, seconds, 0)
            runs.append(line)
            walls.append(wall)
            print(f"{workload} seed {seed}: {wall:.1f}s attempted {line['attempted']} failed {line['failed']} "
                  f"correct {line['correct']} " + " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()),
                  flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "run_wall_s": walls,
            "end_to_end": {m: dict(summarize([r["metrics"][m]["value"] for r in runs], bounds[m]),
                                   unit=runs[0]["metrics"][m]["unit"]) for m in bounds},
        }
        line, wall = _run(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {"seed": seeds[0], "run_wall_s": wall, "correct": line["correct"],
                              "metrics": line["metrics"]}
        with open(os.path.join(ROOT, ".bench_out", f"{workload}-seed{seeds[0]}-trace1.json")) as fh:
            traced = json.load(fh)
        entry["per_layer"]["absent"] = traced["absent"]
        out["meta"] = traced["meta"]
        out["workloads"][workload] = entry
        for m, s in entry["end_to_end"].items():
            print(f"  {m:14s} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.4f}  "
                  f"bound {s['bound']}  {'steady' if s['steady'] else 'NOT steady'}", flush=True)
    path = os.path.join(HERE, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
