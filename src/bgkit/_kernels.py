"""Hot numeric kernels, vectorized with numpy.

Two inner loops dominate the toolkit's runtime: the exhaustive four-point
hyperbolicity scan (O(n^4) quadruples over a distance matrix) and all-pairs
shortest paths for dense graph distance matrices.  Both run on int64
matrices obtained by exact common-denominator scaling, so they lose no
exactness.

This is the only module that imports numpy, so the CLI pays for it only
when a kernel runs.  The plain-loop oracles the kernels are tested against
live in tests/test_kernels.py.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

INF = np.int64(2 ** 60)


def four_point_scan(dist):
    """(2*delta, i, j, k, l) maximizing the four-point difference, int64 exact.

    `dist` is an n x n integer matrix (array or nested lists).  The witness
    is the lexicographically first maximizing quadruple i < j < k < l, so
    the reports that print it are reproducible.
    """
    dist = np.ascontiguousarray(dist, dtype=np.int64)
    n = dist.shape[0]
    if n < 4:
        return np.int64(-1), 0, 0, 0, 0
    # pairs (k, l), k < l, in lexicographic order; those with k > j form the
    # suffix starting at start[j + 1]
    kk, ll = np.triu_indices(n, k=1)
    dkl = dist[kk, ll]
    start = np.searchsorted(kk, np.arange(n + 1))
    # best value and first maximizing pair over k > j, per row (i, j), i < j
    row_best = np.full((n, n), -1, dtype=np.int64)
    row_arg = np.zeros((n, n), dtype=np.int64)
    for j in range(1, n - 2):
        s = start[j + 1]
        k, l = kk[s:], ll[s:]
        s1 = dist[:j, j, None] + dkl[None, s:]
        s2 = dist[:j][:, k] + dist[j, l]
        s3 = dist[:j][:, l] + dist[j, k]
        hi = np.maximum(np.maximum(s1, s2), s3)
        lo = np.minimum(np.minimum(s1, s2), s3)
        val = 2 * hi + lo - (s1 + s2 + s3)
        arg = np.argmax(val, axis=1)
        row_arg[:j, j] = arg + s
        row_best[:j, j] = val[np.arange(j), arg]
    # row-major argmax picks the first (i, j), so the witness is the
    # lexicographically first maximizing quadruple
    i, j = divmod(int(np.argmax(row_best)), n)
    p = row_arg[i, j]
    return row_best[i, j], i, j, int(kk[p]), int(ll[p])


def floyd_warshall(weights: np.ndarray):
    """All-pairs shortest paths of an int64 weight matrix (INF = no edge)."""
    dist = np.array(weights, dtype=np.int64)
    for k in range(dist.shape[0]):
        alt = dist[:, k, None] + dist[None, k, :]
        np.minimum(dist, alt, out=dist)
    np.minimum(dist, INF, out=dist)
    return dist


def graph_distances(n, edges):
    """All-pairs distances of an n-vertex graph given as (i, j, int weight)
    edges, as nested int lists with None for unreachable pairs."""
    mat = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(mat, 0)
    for i, j, w in edges:
        if w < mat[i, j]:
            mat[i, j] = mat[j, i] = w
    inf = int(INF)
    return [[None if cell >= inf else cell for cell in row]
            for row in floyd_warshall(mat).tolist()]


def scale_to_int(values):
    """Common-denominator scaling of a rational iterable -> (ints, scale).

    Exact; raises OverflowError when the scaled magnitudes could overflow
    the int64 arithmetic of the kernels.
    """
    fracs = [Fraction(v) for v in values]
    scale = 1
    for f in fracs:
        scale = scale * f.denominator // math.gcd(scale, f.denominator)
    ints = [int(f * scale) for f in fracs]
    if ints and max(abs(x) for x in ints) > 2 ** 40:
        raise OverflowError("scaled distances too large for the int64 kernels")
    return ints, scale
