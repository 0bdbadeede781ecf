"""Hot numeric kernels, vectorized with numpy.

Two inner loops dominate the toolkit's runtime: the exhaustive four-point
hyperbolicity scan over a distance matrix and all-pairs shortest paths for
dense graph distance matrices.  Both run on integer matrices obtained by
exact common-denominator scaling, so they lose no exactness.

The four-point scan computes the exhaustive four-point constant when
`hyperbolicity.basepoint_certificate`, in pure Python, finds a quadruple
through point 0 that scores above 0.  It works in the narrowest integer
dtype that holds its values exactly, and it scores each quadruple at its
least point i, the base, through the doubled Gromov products at i of the
m = n - i - 1 points after it (Gromov, "Hyperbolic groups", 1987, 1.1):

    G(x, y) = d(i,x) + d(i,y) - d(x,y).

Of the three pair sums of {i, x, y, z}, d(i,z) + d(x,y) is
d(i,x) + d(i,y) + d(i,z) - G(x,y), and so on, so hi - mid is the middle
of G(x,y), G(x,z), G(y,z) less the least:

    score {i, x, y, z} = max over pairs (x, y) of
                         min(G(x,z), G(z,y)) - G(x,y).

For a pair x < y, the row gathers min(G[x], G[y]), less G(x,y), score
every z at once.  With top[x] the largest G(x,z) over z != x, the pair
scores at most bound(x,y) = min(top[x], top[y]) - G(x,y), so only the
pairs whose bound beats the running maximum are scored; on the random
weighted graphs of the benchmark that is a few percent of all pairs.  The
bound reads the row maxima of G and no triangle inequality, so it holds on
any symmetric integer matrix.  The diagonal of G takes a neighbour's
product, G(x, x-1) (G(0, 1) in row 0), so that top skips z = x, and a
degenerate z = x or z = y scores min(G(x,x-1), G(x,y)) - G(x,y) <= 0,
below any base's maximum, which some true quadruple attains and which is
never negative.

G, its bound and the pair mask take three (n-1)^2 buffers, and the rows
gathered for a block of pairs two of SCAN_BLOCK cells (the witness pass
adds one bool buffer of that size), allocated once per call, so memory
stays flat.  Every value stays within 4 * top, top the largest |distance|: G
within 3 * top, and a score or a bound is a difference of two products
that share a point.

This is the only module that imports numpy, so the CLI pays for it only
when a kernel runs.  The plain-loop oracles the kernels are tested against
live in tests/test_kernels.py.
"""

from __future__ import annotations

import math

import numpy as np

from .exact import check_range

INF = np.int64(2 ** 60)
# cells per row buffer of one block of the four-point scan; a block holds
# at least one pair, whose rows may be longer
SCAN_BLOCK = 2 ** 17


def scan_dtype(top):
    """Narrowest signed dtype that holds 4 * top, top the largest |distance|:
    Gromov products stay within 3 * top, and scores and bounds, differences
    of two products that share a point, within 4 * top."""
    if 4 * top < 2 ** 15:
        return np.int16
    if 4 * top < 2 ** 31:
        return np.int32
    return np.int64


def four_point_scan(dist):
    """(2*delta, i, j, k, l) maximizing the four-point difference, exact.

    `dist` is a symmetric n x n integer matrix (array or nested lists); the
    triangle inequality is not needed.  The witness is the lexicographically
    first maximizing quadruple i < j < k < l, so the reports that print it
    are reproducible.  On a tree metric every quadruple scores 0 and that
    quadruple is (0, 1, 2, 3).

    Each base i scores, by row gathers in blocks of at most SCAN_BLOCK
    cells, only the pairs x < y of points after i whose bound exceeds the
    running maximum (see the module docstring): a pair that merely ties it
    cannot move the witness, which lies at the first base to reach the
    maximum.  That base is then scanned again over the pairs whose bound
    reaches the maximum, and its lex-first maximizing (x, y, z), z apart
    from x and y, gives (j, k, l).
    """
    dist = np.asarray(dist, dtype=np.int64)
    n = dist.shape[0]
    if n < 4:
        return -1, 0, 0, 0, 0
    dist = np.ascontiguousarray(dist, dtype=scan_dtype(int(np.abs(dist).max())))
    # G, its bound and the pair mask of a base, and the two rows per pair
    # of a block
    square = [np.empty((n - 1) ** 2, dtype=t)
              for t in (dist.dtype, dist.dtype, bool)]
    upper = np.triu(np.ones((n - 1, n - 1), dtype=bool), 1)
    rows = [np.empty(max(SCAN_BLOCK, n - 1), dtype=dist.dtype)
            for _ in range(2)]
    best, base = -1, 0
    for i in range(n - 3):
        g, pairs = _pairs_above(dist, i, best, square, upper)
        for x, y, near in _blocks(g, pairs, rows):
            score = int((near.max(axis=1) - g[x, y]).max())
            if score > best:
                best, base = score, i
    # scores are integers, so a bound above best - 1 reaches best
    g, pairs = _pairs_above(dist, base, best - 1, square, upper)
    m = len(g)
    first = m ** 3    # above the key (j * m + k) * m + l of every triple
    flags = np.empty(len(rows[0]), dtype=bool)
    for x, y, near in _blocks(g, pairs, rows):
        near -= g[x, y, None]
        hit = np.equal(near, best, out=flags[:near.size].reshape(near.shape))
        r = np.arange(len(x))
        # z = x or z = y is no quadruple
        hit[r, x] = hit[r, y] = False
        # for one pair x < y the least z gives the least sorted triple:
        # (z, x, y) below x, then (x, z, y), then (x, y, z)
        z = hit.argmax(axis=1)
        ok = hit[r, z]
        lo, hi = np.minimum(x, z)[ok], np.maximum(y, z)[ok]
        if len(lo):
            mid = (x + y + z)[ok] - lo - hi
            first = min(first, int(((lo * m + mid) * m + hi).min()))
    j, kl = divmod(first, m * m)
    k, l = divmod(kl, m)
    return best, base, base + 1 + j, base + 1 + k, base + 1 + l


def _pairs_above(dist, i, floor, square, upper):
    """G at base i, as an m x m view into the first buffer of `square`, and
    the flat indices x * m + y, x < y, of the pairs whose bound exceeds
    `floor`."""
    m = len(dist) - i - 1
    g, bound, mask = (buf[:m * m].reshape(m, m) for buf in square)
    d = dist[i, i + 1:]
    np.add(d[:, None], d, out=g)
    g -= dist[i + 1:, i + 1:]
    # the diagonal takes G(x, x-1), and G(0, 1) in row 0
    flat = g.reshape(-1)
    flat[m + 1::m + 1] = flat[m::m + 1]
    flat[0] = flat[1]
    top = g.max(axis=1)
    np.minimum(top[:, None], top, out=bound)
    bound -= g
    np.greater(bound, floor, out=mask)
    mask &= upper[:m, :m]
    return g, np.flatnonzero(mask)


def _blocks(g, pairs, rows):
    """(x, y, near) per block of the flat pair indices `pairs` into the
    m x m products g: near[r] = min(g[x[r]], g[y[r]]) over every z, a
    view into the `rows` buffers of at most SCAN_BLOCK cells, or one pair's
    m when m is larger."""
    m = len(g)
    step = max(1, SCAN_BLOCK // m)
    for a in range(0, len(pairs), step):
        x, y = np.divmod(pairs[a:a + step], m)
        # mode="clip" writes straight into `out` (the default buffers it);
        # every index is in range
        gx, gy = (np.take(g, v, axis=0, mode="clip",
                          out=buf[:len(v) * m].reshape(len(v), m))
                  for v, buf in zip((x, y), rows))
        yield x, y, np.minimum(gx, gy, out=gx)


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
