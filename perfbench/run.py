#!/usr/bin/env python3
"""Layered benchmark of bgkit, timed against adjacent reference computations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it uses ./src and needs nothing
installed.  Workloads: cli-cold, certify-scan, sandwich, four-point (see
README.md).  With --trace 0 the run reports the end-to-end metrics, with
--trace 1 the per-layer ones.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is
the run's record (raw seconds and reference times), also written to
.perfbench/ with the trace spans.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_CHILD = os.path.join(HERE, "setup_child.py")

WORKLOADS = ("cli-cold", "certify-scan", "sandwich", "four-point")
SETUP_REPS = 5
MIN_OPS = {"cli-cold": 2, "certify-scan": 4, "sandwich": 4, "four-point": 4}
# the first in-process op is left out of op_p50_s, though not out of
# ops_per_s: it pays first-touch page faults (+8% on four-point); every
# cli-cold op is a fresh process and counts
WARMUP_OPS = {"cli-cold": 0, "certify-scan": 1, "sandwich": 1,
              "four-point": 1}
# reference weights per workload (see gauge.py); cli-cold's in-process
# cycle in the traced run is pure-Python work
REFERENCES = {"cli-cold": {"proc": 1.0},
              "certify-scan": {"py": 1.0},
              "sandwich": {"py": 1.0},
              "four-point": {"py": 0.3, "np": 0.7}}
TRACED_REFERENCES = dict(REFERENCES, **{"cli-cold": REFERENCES["certify-scan"]})

# per-layer metric -> (home workload, what, span or counter name)
LAYER_METRICS = {
    "cli.run_s": ("cli-cold", "self_s", "cli.run"),
    "reports.to_json_s": ("cli-cold", "self_s", "reports.to_json"),
    "reports.bytes": ("cli-cold", "count", "reports.bytes"),
    "measures.query_s": ("certify-scan", "self_s", "measures.query"),
    "measures.queries": ("certify-scan", "calls", "measures.query"),
    "actions.displacement_profile_s": ("certify-scan", "self_s",
                                       "actions.displacement_profile"),
    "curvature.scan_s": ("certify-scan", "self_s", "curvature.scan"),
    "curvature.scans": ("certify-scan", "calls", "curvature.scan"),
    "curvature.critical_radii": ("certify-scan", "count",
                                 "curvature.critical_radii"),
    "spaces.ball_s": ("sandwich", "self_s", "spaces.ball"),
    "spaces.ball_calls": ("sandwich", "calls", "spaces.ball"),
    "spaces.points_enumerated": ("sandwich", "count",
                                 "spaces.points_enumerated"),
    "measures.profile_s": ("sandwich", "self_s", "measures.profile"),
    "measures.profile_builds": ("sandwich", "calls", "measures.profile"),
    "measures.ball_mass_calls": ("sandwich", "calls", "measures.ball_mass"),
    "measures.queries_per_build": ("sandwich", "per_build", "measures.query"),
    "actions.orbit_s": ("sandwich", "self_s", "actions.orbit"),
    "actions.orbit_rows": ("sandwich", "count", "actions.orbit_rows"),
    "packing.solve_s": ("sandwich", "self_s", "packing.solve"),
    "packing.calls": ("sandwich", "calls", "packing.solve"),
    "packing.candidates": ("sandwich", "count", "packing.candidates"),
    "spaces.distance_matrix_s": ("four-point", "self_s",
                                 "spaces.distance_matrix"),
    "hyperbolicity.four_point_s": ("four-point", "self_s",
                                   "hyperbolicity.four_point"),
    "hyperbolicity.points": ("four-point", "count", "hyperbolicity.points"),
    "kernels.scale_to_int_s": ("four-point", "self_s", "kernels.scale_to_int"),
    "kernels.four_point_scan_s": ("four-point", "self_s",
                                  "kernels.four_point_scan"),
    "kernels.floyd_warshall_s": ("four-point", "self_s",
                                 "kernels.floyd_warshall"),
    "kernels.fw_vertices": ("four-point", "count", "kernels.fw_vertices"),
}
IMPORT_METRICS = ("import.bgkit_cli_s", "import.scipy_s", "import.numpy_s")


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric == "reports.bytes":
        return "bytes"
    return "ratio" if metric.endswith("_per_build") else "count"


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def closed_loop(one_op, seconds, min_ops):
    """Run whole ops until one more would end past `seconds`; count failures."""
    done, failed = [], 0
    start = time.perf_counter()
    while True:
        try:
            done.append(one_op())
        except Exception:                 # an op that bgkit fails on
            failed += 1
            traceback.print_exc()
        n = len(done) + failed
        if n >= min_ops and (time.perf_counter() - start) * (n + 1) / n > seconds:
            return done, failed


def same_outputs(outputs):
    return [] if all(o == outputs[0] for o in outputs[1:]) else [
        "outputs differ between ops on the same inputs"]


def op_pieces(workload, data, env, in_process=False):
    import workloads
    if workload == "cli-cold":
        if in_process:
            return workloads.cli_inprocess_pieces(data)
        return workloads.cli_cold_pieces(data, env)
    return {"certify-scan": workloads.certify_pieces,
            "sandwich": workloads.sandwich_pieces,
            "four-point": workloads.four_point_pieces}[workload](data)


def check(workload, data, results):
    """Errors found in the results of every op of one workload."""
    import workloads
    if workload == "cli-cold":
        return workloads.check_cli(data, results)
    errors = same_outputs(results)
    if workload == "certify-scan":
        return errors + workloads.check_certify(data, results[0])
    if workload == "sandwich":
        return errors + workloads.check_sandwich(data, results[0])
    return errors + workloads.check_four_point(
        data, results[0], workloads.four_point_expected(data))


def run_untraced(name, seed, seconds, env):
    import gauge
    import inputs

    proc = gauge.Gauge(REFERENCES["cli-cold"])
    setup = []
    for _ in range(SETUP_REPS):
        op, ((_wall, code, _out, _rss),) = proc.measure([functools.partial(
            gauge.run_child, [sys.executable, SETUP_CHILD, name, str(seed)],
            env=env)])
        if code != 0:
            raise RuntimeError(f"set-up child exited with code {code}")
        setup.append(op)

    data = inputs.BUILDERS[name](seed)
    meter = proc if name == "cli-cold" else gauge.Gauge(REFERENCES[name])
    done, failed = closed_loop(
        lambda: meter.measure(op_pieces(name, data, env)), seconds,
        MIN_OPS[name])
    if not done:
        raise RuntimeError("every op failed")
    results = [res for _op, res in done]
    if name == "cli-cold":
        rss = max(child_rss for res in results for _c, _o, child_rss in res)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = check(name, data, results)

    all_times = [meter.scaled(op) for op, _res in done]
    op_times = all_times[WARMUP_OPS[name]:]
    setup_times = [proc.scaled(op) for op in setup]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        # every op of the timed phase, over their scaled time: the raw phase
        # also holds the reference samples and the machine's speed changes
        "ops_per_s": (len(all_times) / sum(all_times), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    record = {"workload": name, "seed": seed, "trace": 0,
              "setup_scaled_s": setup_times, "op_scaled_s": all_times,
              "setup_raw_s": [proc.raw(op) for op in setup],
              "op_raw_s": [meter.raw(op) for op, _res in done],
              "warmup_ops": WARMUP_OPS[name],
              "gauges": [proc.record()] + (
                  [] if meter is proc else [meter.record()]),
              "errors": errors}
    return not errors, len(done) + failed, failed, metrics, record, None


def run_traced(name, seed, seconds, env):
    import gauge
    import inputs
    import trace

    data = {w: inputs.BUILDERS[w](seed) for w in WORKLOADS}
    meters = {w: gauge.Gauge(TRACED_REFERENCES[w]) for w in WORKLOADS}
    probe = gauge.Gauge(REFERENCES["cli-cold"])
    results = {w: [] for w in WORKLOADS}
    spans = {}

    def one_round():
        """One traced op of every workload, one untraced op of `name`, and
        an import probe.  Returns {metric: count, or (gauge, op, raw
        seconds) for a time}; times are scaled once every reference sample
        is in."""
        values = {}
        untraced, _res = meters[name].measure(
            op_pieces(name, data[name], env, in_process=True))
        for home in WORKLOADS:
            tracer = trace.Tracer()
            meter = meters[home]
            with tracer:
                op, res = meter.measure(
                    op_pieces(home, data[home], env, in_process=True))
            results[home].append(res)
            spans[home] = tracer.spans
            if home == name:
                values["trace.overhead_s"] = (meter, op, untraced)
            self_s, calls = tracer.self_times(), tracer.calls()
            for metric, (metric_home, what, key) in LAYER_METRICS.items():
                if metric_home != home:
                    continue
                if what == "self_s":
                    values[metric] = (meter, op, self_s[key])
                elif what == "calls":
                    values[metric] = calls[key]
                elif what == "count":
                    values[metric] = tracer.counts[key]
                else:
                    values[metric] = calls[key] / calls["measures.profile"]
        op, ((_w, code, err, _r),) = probe.measure([functools.partial(
            gauge.run_child, [sys.executable, "-X", "importtime", "-c",
                              "import bgkit.cli"], env=env, capture="stderr")])
        if code != 0:
            raise RuntimeError("import probe failed")
        for metric, seconds_ in trace.parse_importtime(err.decode()).items():
            values[metric] = (probe, op, seconds_)
        return values

    rounds, failed = closed_loop(one_round, seconds, 2)
    if not rounds:
        raise RuntimeError("every traced round failed")
    errors = []
    for home in WORKLOADS:
        errors += check(home, data[home], results[home])

    def scaled(entry):
        """Times scale by their op's reference factor; counts stay."""
        if not isinstance(entry, tuple):
            return entry
        meter, op, raw = entry
        if isinstance(raw, range):          # tracing overhead
            return meter.scaled(op) - meter.scaled(raw)
        return raw * meter.scaled(op) / meter.raw(op)

    scaled_rounds = [{m: scaled(v) for m, v in r.items()} for r in rounds]
    metrics = {m: (statistics.median(r[m] for r in scaled_rounds), unit_of(m))
               for m in list(LAYER_METRICS) + list(IMPORT_METRICS)
               + ["trace.overhead_s"]}
    record = {"workload": name, "seed": seed, "trace": 1,
              "rounds": scaled_rounds,
              "gauges": [m.record() for m in meters.values()]
              + [probe.record()],
              "errors": errors}
    return not errors, len(rounds) + failed, failed, metrics, record, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bgkit", "__init__.py")):
        print(f"perfbench: no bgkit sources at {SRC}; run it from the root "
              "of a bgkit source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ, SOURCE_DATE_EPOCH="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    os.environ["SOURCE_DATE_EPOCH"] = "0"     # for in-process cli.run

    runner = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics, record, spans = runner(
        args.workload, args.seed, args.seconds, env)
    for err in record["errors"]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh)
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": spans}, fh, separators=(",", ":"))
    print(json.dumps({"record": record}))
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
