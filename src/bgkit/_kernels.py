"""Hot numeric kernels, vectorized with numpy.

Two inner loops dominate the toolkit's runtime: the exhaustive four-point
hyperbolicity scan over a distance matrix and all-pairs shortest paths for
dense graph distance matrices.  Both run on integer matrices obtained by
exact common-denominator scaling, so they lose no exactness.

The four-point scan first tries a one-basepoint certificate.  With
G[x, y] = d(0, x) + d(0, y) - d(x, y), the doubled Gromov products at
point 0, the largest four-point difference hi - mid over the quadruples
through point 0 is

    V0 = max over x, y of (max over z of min(G[x, z], G[z, y])) - G[x, y],

an O(n^3) (max, min) product.  By the basepoint lemma (Gromov, "Hyperbolic
groups", 1987, 1.1; Ghys and de la Harpe 1990, ch. 2, prop. 2), a metric
whose quadruples through one point all have hi - mid <= c has
hi - mid <= 2c on every quadruple, so the maximum lies in [V0, 2 V0].  V0 = 0
therefore certifies that every quadruple scores 0, as on trees and free
group balls, and the scan is skipped.  Otherwise the Theta(n^4) scan runs
in the narrowest integer dtype that holds its sums exactly.

This is the only module that imports numpy, so the CLI pays for it only
when a kernel runs.  The plain-loop oracles the kernels are tested against
live in tests/test_kernels.py.
"""

from __future__ import annotations

import math

import numpy as np

INF = np.int64(2 ** 60)
# elements of one (max, min) block of the basepoint certificate
CERTIFICATE_BLOCK = 2 ** 21


def scan_dtype(top):
    """Narrowest signed dtype that holds 4 * top, top the largest |distance|:
    pair sums and their differences stay within 2 * top."""
    if 4 * top < 2 ** 15:
        return np.int16
    if 4 * top < 2 ** 31:
        return np.int32
    return np.int64


def basepoint_excess(dist):
    """V0: the largest hi - mid over the quadruples through point 0.

    `dist` is a square integer array in a dtype from `scan_dtype`.  Rows of
    the (max, min) product go in blocks of about CERTIFICATE_BLOCK elements.
    """
    g = dist[0, :, None] + dist[0, None, :] - dist
    n = g.shape[0]
    step = max(1, CERTIFICATE_BLOCK // (n * n))
    best = []
    for a in range(0, n, step):
        rows = g[a:a + step]
        reach = np.minimum(rows[:, :, None], g[None, :, :]).max(axis=1)
        best.append(int((reach - rows).max()))
    return max(best)


def four_point_scan(dist):
    """(2*delta, i, j, k, l) maximizing the four-point difference, exact.

    `dist` is an n x n integer metric (array or nested lists).  The witness
    is the lexicographically first maximizing quadruple i < j < k < l, so
    the reports that print it are reproducible.  When the basepoint
    certificate is 0 every quadruple scores 0 and that quadruple is
    (0, 1, 2, 3).
    """
    dist = np.asarray(dist, dtype=np.int64)
    n = dist.shape[0]
    if n < 4:
        return -1, 0, 0, 0, 0
    dist = np.ascontiguousarray(dist, dtype=scan_dtype(int(np.abs(dist).max())))
    if basepoint_excess(dist) == 0:
        return 0, 0, 1, 2, 3
    # pairs (k, l), k < l, in lexicographic order; those with k > j form the
    # suffix starting at start[j + 1]
    kk, ll = np.triu_indices(n, k=1)
    dkl = dist[kk, ll]
    start = np.searchsorted(kk, np.arange(n + 1))
    # best value and first maximizing pair over k > j, per row (i, j), i < j
    row_best = np.full((n, n), -1, dtype=dist.dtype)
    row_arg = np.zeros((n, n), dtype=np.int64)
    for j in range(1, n - 2):
        s = start[j + 1]
        k, l = kk[s:], ll[s:]
        s1 = dist[:j, j, None] + dkl[None, s:]
        s2 = dist[:j][:, k]
        s2 += dist[j, l]
        s3 = dist[:j][:, l]
        s3 += dist[j, k]
        # hi - mid, with mid = max(min(s1, s2), min(max(s1, s2), s3))
        mid = np.minimum(s1, s2)
        np.maximum(s1, s2, out=s1)
        np.minimum(s1, s3, out=s2)
        np.maximum(mid, s2, out=mid)
        np.maximum(s1, s3, out=s1)
        val = np.subtract(s1, mid, out=s1)
        arg = np.argmax(val, axis=1)
        row_arg[:j, j] = arg + s
        row_best[:j, j] = val[np.arange(j), arg]
    # row-major argmax picks the first (i, j), so the witness is the
    # lexicographically first maximizing quadruple
    i, j = divmod(int(np.argmax(row_best)), n)
    p = row_arg[i, j]
    return int(row_best[i, j]), i, j, int(kk[p]), int(ll[p])


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
    """Common-denominator scaling of rationals (ints or Fractions) ->
    (ints, scale), exact.

    Raises OverflowError when a scaled magnitude passes 2**40, beyond which
    the kernels' integer arithmetic could overflow.
    """
    values = list(values)
    scale = math.lcm(*{v.denominator for v in values})
    ints = [v.numerator * (scale // v.denominator) for v in values]
    if ints and max(map(abs, ints)) > 2 ** 40:
        raise OverflowError("scaled distances too large for the int64 kernels")
    return ints, scale
