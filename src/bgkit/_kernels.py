"""Hot numeric kernels, vectorized with numpy.

Two inner loops dominate the toolkit's runtime: the exhaustive four-point
hyperbolicity scan over a distance matrix and all-pairs shortest paths for
dense graph distance matrices.  Both run on integer matrices obtained by
exact common-denominator scaling, so they lose no exactness.

The four-point scan is the Theta(n^4) half of the exhaustive four-point
constant: `hyperbolicity.basepoint_certificate` settles delta = 0 in pure
Python first, so the scan runs only when a quadruple through point 0
scores above 0.  The scan works in the narrowest integer dtype that holds
its sums exactly.  For each j and a block of rows i < j it scores the full
(k, l) square over k, l > j.  Adding the same amount to all three pair
sums leaves hi - mid as it is, so the scan takes them less d(j,l), as
broadcasts of contiguous slices:

    d(i,j) + d(k,l) - d(j,l) = dist[i, j] + (dist[j+1:, j+1:] - dist[j, j+1:])
    d(i,k)                   = dist[i, j+1:, None]
    d(i,l) + d(j,k) - d(j,l) = dist[i, None, j+1:] + (dist[j, j+1:, None]
                                                      - dist[j, j+1:])

The two differences in parentheses are m x m, m = n - j - 1, made once
per j.  The sums go into four buffers of about SCAN_BLOCK cells allocated
once per call, so the scan gathers no copies of the matrix and its memory
stays flat.  The matrix must be symmetric: a score is then symmetric in
k <-> l, so the row-major argmax over the square meets every maximum
first at some k < l, and the diagonal k = l is set to -1 so that it never
wins a tie.  The square costs twice the cells of the k < l triangle, which
contiguous access more than repays.

This is the only module that imports numpy, so the CLI pays for it only
when a kernel runs.  The plain-loop oracles the kernels are tested against
live in tests/test_kernels.py.
"""

from __future__ import annotations

import math

import numpy as np

from .exact import check_range

INF = np.int64(2 ** 60)
# cells per buffer of one block of the four-point scan; a block holds at
# least one row i, whose (k, l) square may be larger
SCAN_BLOCK = 2 ** 17


def scan_dtype(top):
    """Narrowest signed dtype that holds 4 * top, top the largest |distance|:
    pair sums less a distance stay within 3 * top, and differences of pair
    sums within 4 * top."""
    if 4 * top < 2 ** 15:
        return np.int16
    if 4 * top < 2 ** 31:
        return np.int32
    return np.int64


def four_point_scan(dist):
    """(2*delta, i, j, k, l) maximizing the four-point difference, exact.

    `dist` is a symmetric n x n integer metric (array or nested lists).  The
    witness is the lexicographically first maximizing quadruple
    i < j < k < l, so the reports that print it are reproducible.  On a
    tree metric every quadruple scores 0 and that quadruple is (0, 1, 2, 3).

    Each j scores the full square of (k, l), k, l > j, for a block of rows
    i < j at a time, from contiguous broadcasts into four buffers allocated
    once per call (see the module docstring).  A score is symmetric in
    k <-> l because `dist` is, so the row-major argmax over the square
    meets each maximum first at k < l; the diagonal k = l is set to -1 so
    that it never wins a tie.
    """
    dist = np.asarray(dist, dtype=np.int64)
    n = dist.shape[0]
    if n < 4:
        return -1, 0, 0, 0, 0
    dist = np.ascontiguousarray(dist, dtype=scan_dtype(int(np.abs(dist).max())))
    # rows i < j per block: about SCAN_BLOCK cells, at least one row
    steps = [min(j, max(1, SCAN_BLOCK // (n - j - 1) ** 2))
             for j in range(n - 2)]
    size = max(steps[j] * (n - j - 1) ** 2 for j in range(1, n - 2))
    bufs = [np.empty(size, dtype=dist.dtype) for _ in range(4)]
    # best value and first maximizing cell k * m + l of the square, per row
    # (i, j), i < j
    row_best = np.full((n, n), -1, dtype=dist.dtype)
    row_arg = np.zeros((n, n), dtype=np.int64)
    for j in range(1, n - 2):
        m = n - j - 1
        # the pair sums are taken less d(j,l), which leaves hi - mid as it is
        dj = dist[j, j + 1:]
        tail = dist[j + 1:, j + 1:] - dj
        cross = dj[:, None] - dj
        for a in range(0, j, steps[j]):
            b = min(j, a + steps[j])
            s1, s2, s3, mid = (buf[:(b - a) * m * m].reshape(b - a, m, m)
                               for buf in bufs)
            rows = dist[a:b, j + 1:]
            # d(i,j) + d(k,l), d(i,k) + d(j,l) and d(i,l) + d(j,k), less d(j,l)
            np.add(dist[a:b, j, None, None], tail, out=s1)
            np.copyto(s2, rows[:, :, None])
            np.add(rows[:, None, :], cross, out=s3)
            # hi - mid, with mid = max(min(s1, s2), min(max(s1, s2), s3))
            np.minimum(s1, s2, out=mid)
            np.maximum(s1, s2, out=s1)
            np.minimum(s1, s3, out=s2)
            np.maximum(mid, s2, out=mid)
            np.maximum(s1, s3, out=s1)
            val = np.subtract(s1, mid, out=s1).reshape(b - a, m * m)
            val[:, ::m + 1] = -1
            arg = val.argmax(axis=1)
            row_arg[a:b, j] = arg
            row_best[a:b, j] = val[np.arange(b - a), arg]
    # row-major argmax picks the first (i, j), so the witness is the
    # lexicographically first maximizing quadruple
    i, j = divmod(int(np.argmax(row_best)), n)
    k, l = divmod(int(row_arg[i, j]), n - j - 1)
    return int(row_best[i, j]), i, j, j + 1 + k, j + 1 + l


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
    (ints, scale), exact; `check_range` refuses them past 2**40."""
    values = list(values)
    scale = math.lcm(*{v.denominator for v in values})
    ints = [v.numerator * (scale // v.denominator) for v in values]
    check_range(ints)
    return ints, scale
