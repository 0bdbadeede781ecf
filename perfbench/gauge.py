"""Reference computations that put every timing on a fixed scale.

This machine's speed is not steady.  It switches between a fast and a slow
state (about 1.8x apart) every 0.1 to 3 seconds, and drifts over minutes on
top of that; process CPU time moves with it.  So every op is cut into
pieces of about 0.02 to 1.2 s, each piece is timed between two short
reference computations of the same kind, and the op is reported as

    scaled = sum over pieces of raw piece seconds * nominal
                                / mean of the two adjacent reference times

that is, in seconds at the stated reference speed.  The references are fixed
here and never import bgkit, so a change to bgkit cannot move them.

References:

* ``py``: pure-Python interpreter work (Fraction adds, dict stores, a keyed
  sort), 10 ms at the nominal speed.
* ``np``: a numpy int64 min-plus product, 7 ms at the nominal speed.
* ``proc``: a fresh interpreter that imports numpy and a few stdlib
  packages, 0.20 s at the nominal speed; it scales cold CLI processes and
  set-up.

In the machine's slow state the ``py`` reference slows by about 1.9x and
the ``np`` one by about 1.25x.  The pure-Python workloads are scaled by
``py`` alone.  The four-point ops, part int64 kernel and part Fraction round
trip, slow by about 1.4x, so they are scaled by the weighted geometric mean
py^0.3 np^0.7 of the two factors (weights set in run.py); with py alone, a
run that fell in the slow state would read about 10% faster.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

PY_NOMINAL_S = 0.010
NP_NOMINAL_S = 0.007
PROC_NOMINAL_S = 0.20

PROC_CODE = "import numpy, fractions, json, argparse, decimal, email.parser"

_NP_SIZE = 192
_NP_MATRIX = np.random.default_rng(0).integers(
    1, 1000, size=(_NP_SIZE, _NP_SIZE)).astype(np.int64)


def py_reference() -> float:
    t0 = time.perf_counter()
    table = {}
    for i in range(1, 1001):
        table[(i * 7919) % 10007] = (Fraction(i % 97 + 1, 89)
                                     + Fraction(i % 89 + 1, 97))
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    elapsed = time.perf_counter() - t0
    if ordered[0][0] != 7919:
        raise RuntimeError("py reference computed a wrong result")
    return elapsed


def np_reference() -> float:
    t0 = time.perf_counter()
    a = _NP_MATRIX
    c = a.copy()
    for k in range(_NP_SIZE):
        np.minimum(c, a[:, k, None] + a[None, k, :], out=c)
    total = int(c.sum())
    elapsed = time.perf_counter() - t0
    if total <= 0:
        raise RuntimeError("numpy reference computed a wrong result")
    return elapsed


def run_child(argv, env=None, capture=None):
    """Run one child to its end; (wall seconds, exit code, captured bytes,
    max RSS in MB).  `capture` names the stream to return, "stdout" or
    "stderr"; the other streams are discarded.

    The child is reaped with wait4, so its own peak RSS is known exactly.
    """
    streams = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    if capture:
        streams[capture] = subprocess.PIPE
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, **streams)
    out = b""
    try:
        if capture:
            pipe = getattr(proc, capture)
            out = pipe.read()
            pipe.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out, usage.ru_maxrss / 1024.0


def proc_reference() -> float:
    elapsed, code, _out, _rss = run_child([sys.executable, "-c", PROC_CODE])
    if code != 0:
        raise RuntimeError("proc reference child failed")
    return elapsed


SAMPLERS = {"py": py_reference, "np": np_reference, "proc": proc_reference}
NOMINAL_S = {"py": PY_NOMINAL_S, "np": NP_NOMINAL_S, "proc": PROC_NOMINAL_S}


class Gauge:
    """Times the pieces of ops between reference samples.

    `weights` maps reference names to weights that sum to 1.  Sample j is
    taken before piece j and after piece j - 1, so a closed loop pays one
    reference sample per piece.
    """

    def __init__(self, weights: dict):
        self.weights = dict(weights)
        self.samples = [self.sample()]
        self.pieces = []

    def sample(self) -> dict:
        return {name: SAMPLERS[name]() for name in self.weights}

    def measure(self, pieces):
        """Run the pieces of one op; return (piece indices, their results)."""
        first = len(self.pieces)
        results = []
        for piece in pieces:
            t0 = time.perf_counter()
            results.append(piece())
            self.pieces.append(time.perf_counter() - t0)
            self.samples.append(self.sample())
        return range(first, len(self.pieces)), results

    def factor(self, j: int) -> float:
        """Weighted geometric mean over the references of nominal time over
        the mean of the two samples around piece j."""
        return math.exp(sum(
            w * math.log(NOMINAL_S[name] * 2.0 / (self.samples[j][name]
                                                  + self.samples[j + 1][name]))
            for name, w in self.weights.items()))

    def raw(self, op) -> float:
        return sum(self.pieces[j] for j in op)

    def scaled(self, op) -> float:
        return sum(self.pieces[j] * self.factor(j) for j in op)

    def record(self) -> dict:
        return {"weights": self.weights,
                "nominal_s": {name: NOMINAL_S[name] for name in self.weights},
                "piece_raw_s": self.pieces, "samples": self.samples}
