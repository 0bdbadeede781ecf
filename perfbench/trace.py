"""Spans around the calls into each bgkit layer, installed from outside.

The tracer replaces public functions and methods with wrappers that record
a span (name, start, end, parent) and a few counts, and puts the originals
back afterwards.  A wrapper is installed wherever callers look the name up:
``curvature`` and ``packing`` bind ``ball_mass`` at import, so those names
are wrapped as well as ``measures.ball_mass``.  Self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from bgkit import (_kernels, actions, cli, curvature, hyperbolicity, measures,
                   packing, reports, spaces)


def _classes_defining(module, attr):
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and attr in obj.__dict__]


def _points(counts, _args, result):
    counts["spaces.points_enumerated"] += len(result)


def _orbit_rows(counts, _args, result):
    counts["actions.orbit_rows"] += len(result)


def _radii(counts, _args, result):
    counts["curvature.critical_radii"] += getattr(
        result, "critical_radii_checked", 0)


def _candidates(counts, _args, result):
    counts["packing.candidates"] += result.candidates


def _points_used(counts, _args, result):
    counts["hyperbolicity.points"] += result.points_used


def _fw_vertices(counts, args, _result):
    counts["kernels.fw_vertices"] += args[0].shape[0]


def _json_bytes(counts, _args, result):
    counts["reports.bytes"] += len(result.encode())


def _targets():
    """(owner, attribute, span name, count hook) for every traced call site."""
    out = []
    for cls in _classes_defining(spaces, "ball"):
        out.append((cls, "ball", "spaces.ball", _points))
    out.append((spaces.WeightedGraph, "distance_matrix",
                "spaces.distance_matrix", None))
    for cls in _classes_defining(measures, "profile"):
        out.append((cls, "profile", "measures.profile", None))
    for module in (measures, curvature, packing):
        out.append((module, "ball_mass", "measures.ball_mass", None))
    for attr in ("mass_lt", "mass_le"):
        out.append((measures.DistanceProfile, attr, "measures.query", None))
    for cls in _classes_defining(actions, "displacement_profile"):
        out.append((cls, "displacement_profile",
                    "actions.displacement_profile", None))
    for cls in _classes_defining(actions, "elements_moving_near"):
        out.append((cls, "elements_moving_near", "actions.orbit", _orbit_rows))
    for name in ("check_weak_bg", "check_bg_synthetic", "min_exponent"):
        out.append((curvature, name, "curvature.scan", _radii))
    out.append((packing, "packing_count", "packing.solve", _candidates))
    out.append((hyperbolicity, "four_point_delta", "hyperbolicity.four_point",
                _points_used))
    out.append((_kernels, "scale_to_int", "kernels.scale_to_int", None))
    out.append((_kernels, "four_point_scan", "kernels.four_point_scan", None))
    out.append((_kernels, "floyd_warshall", "kernels.floyd_warshall",
                _fw_vertices))
    out.append((cli, "run", "cli.run", None))
    out.append((reports.Report, "to_json", "reports.to_json", _json_bytes))
    return out


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result
        return traced

    def __enter__(self):
        for owner, attr, name, hook in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def self_times(self) -> dict:
        """Span name -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _parent), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def parse_importtime(stderr: str) -> dict:
    """Seconds from `python -X importtime -c "import bgkit.cli"`: the
    cumulative time of bgkit.cli and the summed self time of every numpy and
    scipy module."""
    out = {"import.bgkit_cli_s": 0.0, "import.scipy_s": 0.0,
           "import.numpy_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue          # the header line
        module = fields[2].strip()
        root = module.split(".")[0]
        if module == "bgkit.cli":
            out["import.bgkit_cli_s"] = cumulative_us / 1e6
        if root in ("scipy", "numpy"):
            out[f"import.{root}_s"] += self_us / 1e6
    return out
