#!/usr/bin/env python3
"""Two sets of benchmark runs of the same code, compared metric by metric.

    python3 perfbench/steadiness.py

Run it from the root of a source checkout.  Each set runs every workload of
BENCHMARK.json once per seed, one run at a time, workloads interleaved; set
A uses seeds 1..10 and set B seeds 101..110.  For every end-to-end metric
and workload it prints each set's median and quartiles, the quartile spread
as a share of the median, how much worse set B's median is than set A's,
and the metric's bound.  It exits with 0 only if every run's outputs were
correct with no failed op, every spread is within its bound and no median
of set B is worse than set A's by more than the bound.  All run results are
saved to .perfbench/steadiness-<time>.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
RUNS = 10
SEED_OFFSETS = (0, 100)


def one_run(spec, workload, seed):
    argv = [sys.executable if word == "python3" else word
            for word in spec["command"]]
    argv += ["--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def report(spec, results):
    """Print both sets per workload and metric; True if within the bounds."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print(f"{'workload':13} {'metric':12} {'set':3} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'worse':>7} {'bound':>6}")
    for workload, sets in results.items():
        for metric, meta in bounds.items():
            rows = [summary([r["metrics"][metric]["value"] for r in runs])
                    for runs in sets]
            for label, row in zip("AB", rows):
                worse = ""
                if label == "B":
                    change = row["median"] / rows[0]["median"] - 1
                    worse = change if meta["better"] == "lower" else -change
                    ok &= worse <= meta["bound"]
                    worse = f"{worse:+7.3f}"
                ok &= row["spread"] <= meta["bound"]
                print(f"{workload:13} {metric:12} {label:3} "
                      f"{row['median']:10.4f} {row['q1']:10.4f} "
                      f"{row['q3']:10.4f} {row['spread']:7.3f} {worse:>7} "
                      f"{meta['bound']:6.2f}")
        runs = [r for one_set in sets for r in one_set]
        bad = sum(not r["correct"] or r["failed"] != 0 for r in runs)
        ok &= bad == 0
        walls = [r["wall_s"] for r in runs]
        print(f"{workload:13} {bad} runs with a failed check or op, run wall "
              f"time {min(walls):.1f}-{max(walls):.1f} s")
    print("within bounds" if ok else "OUTSIDE BOUNDS")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in SEED_OFFSETS] for w in names}
    for s, offset in enumerate(SEED_OFFSETS):
        for i in range(1, RUNS + 1):
            for w in names:
                run = one_run(spec, w, offset + i)
                results[w][s].append(run)
                print(f"set {'AB'[s]} seed {offset + i} {w}: "
                      + " ".join(f"{k}={v['value']:.4f}"
                                 for k, v in run["metrics"].items()),
                      flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, time.strftime("steadiness-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump(results, fh)
    print(f"saved {path}")
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
