import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bgkit import _kernels
from bgkit.hyperbolicity import basepoint_certificate


def _four_point_py(dist):
    """Plain quadruple loop: the oracle for four_point_scan."""
    d = np.asarray(dist).tolist()
    n = len(d)
    best = -1
    wi = wj = wk = wl = 0
    for i in range(n):
        for j in range(i + 1, n):
            dij = d[i][j]
            for k in range(j + 1, n):
                dik = d[i][k]
                djk = d[j][k]
                for l in range(k + 1, n):
                    s1 = dij + d[k][l]
                    s2 = dik + d[j][l]
                    s3 = d[i][l] + djk
                    hi = max(s1, s2, s3)
                    lo = min(s1, s2, s3)
                    two_delta = 2 * hi + lo - (s1 + s2 + s3)
                    if two_delta > best:
                        best = two_delta
                        wi, wj, wk, wl = i, j, k, l
    return best, wi, wj, wk, wl


def _basepoint_excess_py(dist):
    """V0, the largest hi - mid over the quadruples through point 0, by the
    plain O(n^3) (max, min) loop: the oracle for basepoint_certificate.
    With G[x][y] = d(0,x) + d(0,y) - d(x,y), V0 is the max over x, y of
    (max over z of min(G[x][z], G[z][y])) - G[x][y]."""
    d = np.asarray(dist).tolist()
    n = len(d)
    g = [[d[0][x] + d[0][y] - d[x][y] for y in range(n)] for x in range(n)]
    columns = list(zip(*g))
    return max(max(map(min, g[x], columns[y])) - g[x][y]
               for x in range(n) for y in range(n))


def _floyd_warshall_py(w):
    """Plain triple loop: the oracle for floyd_warshall."""
    n = w.shape[0]
    dist = w.copy()
    for k in range(n):
        for i in range(n):
            dik = dist[i, k]
            if dik >= _kernels.INF:
                continue
            for j in range(n):
                alt = dik + dist[k, j]
                if alt < dist[i, j]:
                    dist[i, j] = alt
    return dist


def random_metric_ints(n, seed):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 50, size=(n, 2))
    d = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    return d.astype(np.int64)


def as_ints(scan):
    return tuple(int(x) for x in scan)


def random_tree(n, rng):
    """Parent links and integer weights of a random tree on 0..n-1."""
    return [(rng.randrange(i), i, rng.randint(1, 9)) for i in range(1, n)]


def tree_path(edges, u, v):
    """Vertices of the tree path from u to v; each edge of `edges` runs
    from a parent to its child."""
    parent = {child: p for p, child, _w in edges}

    def to_root(x):
        out = [x]
        while out[-1] in parent:
            out.append(parent[out[-1]])
        return out

    up, down = to_root(u), to_root(v)
    meet = next(x for x in up if x in down)
    return up[:up.index(meet) + 1] + down[:down.index(meet)][::-1]


def path_metric(n, edges):
    """Shortest-path metric of integer-weighted edges, by the loop oracle."""
    w = np.full((n, n), _kernels.INF, dtype=np.int64)
    np.fill_diagonal(w, 0)
    for u, v, x in edges:
        w[u, v] = w[v, u] = min(w[u, v], x)
    return _floyd_warshall_py(w)


def tree_plus_edge(seed):
    """A random tree plus one short edge closing a cycle of at least six
    vertices that avoids vertex 0."""
    rng = random.Random(seed)
    n = rng.randint(10, 30)
    edges = random_tree(n, rng)
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n)
             if len(tree_path(edges, u, v)) >= 6
             and 0 not in tree_path(edges, u, v)]
    u, v = rng.choice(pairs)
    return path_metric(n, edges + [(u, v, rng.randint(1, 3))])


def rescaled(d, top):
    """d scaled by an integer and shifted off the diagonal so that its
    largest distance is exactly `top`.  A shift by t adds 2t to every pair
    sum, so it keeps the metric and every four-point difference."""
    d = d * (top // int(d.max()))
    return d + (top - int(d.max())) * (1 - np.eye(len(d), dtype=np.int64))


def test_four_point_backends_agree():
    # full (2*delta, i, j, k, l) tuples: the witness lands in the delta report,
    # so the kernel must pick the oracle's (lexicographically first) quadruple
    for n, seed in [(6, 1), (6, 6), (8, 6), (8, 0), (12, 1), (20, 2)]:
        d = random_metric_ints(n, seed)
        assert as_ints(_kernels.four_point_scan(d)) == as_ints(_four_point_py(d))


def test_four_point_tree_metrics_take_the_certificate():
    # every quadruple of a tree metric scores 0: the certificate settles it,
    # and the scan alone finds the same lex-first quadruple
    for n in (4, 5, 6, 7, 9, 12, 16, 21, 27, 33, 40):
        for seed in range(2):
            rng = random.Random(100 * n + seed)
            d = path_metric(n, random_tree(n, rng))
            assert _basepoint_excess_py(d) == 0
            assert basepoint_certificate(d.tolist())
            assert as_ints(_kernels.four_point_scan(d)) == \
                as_ints(_four_point_py(d)) == (0, 0, 1, 2, 3)


def test_four_point_cycle_off_the_basepoint():
    # a cycle that avoids vertex 0: the quadruples through 0 score V0 > 0,
    # yet the best quadruple elsewhere scores more, at most 2 V0
    for seed in (3, 11, 29, 55, 137, 140, 180, 282):
        d = tree_plus_edge(seed)
        v0 = _basepoint_excess_py(d)
        want = as_ints(_four_point_py(d))
        assert 0 < v0 < want[0] <= 2 * v0
        assert not basepoint_certificate(d.tolist())
        assert as_ints(_kernels.four_point_scan(d)) == want


@pytest.mark.parametrize("top, dtype", [
    (2 ** 13 - 1, np.int16), (2 ** 13, np.int32),
    (2 ** 29 - 1, np.int32), (2 ** 29, np.int64), (2 ** 40, np.int64)])
def test_four_point_at_dtype_switch_points(top, dtype):
    assert _kernels.scan_dtype(top) is dtype
    tree = path_metric(9, random_tree(9, random.Random(4)))
    cycle = tree_plus_edge(55)
    for d in (rescaled(random_metric_ints(11, 7), top), rescaled(tree, top),
              rescaled(cycle, top)):
        assert int(d.max()) == top
        assert as_ints(_kernels.four_point_scan(d)) == \
            as_ints(_four_point_py(d))


@pytest.mark.parametrize("block", [1, 7, 300])
def test_four_point_split_blocks(monkeypatch, block):
    # at the default sizes every tested n fits one block; these split the
    # rows i < j of the scan into many
    monkeypatch.setattr(_kernels, "SCAN_BLOCK", block)
    metrics = [random_metric_ints(n, n) for n in (13, 21, 30)]
    metrics += [tree_plus_edge(seed)
                for seed in (3, 11, 29, 55, 137, 140, 180, 282)]
    for d in metrics:
        assert as_ints(_kernels.four_point_scan(d)) == \
            as_ints(_four_point_py(d))


def grid_l1_metric(side):
    coords = [(x, y) for x in range(side) for y in range(side)]
    return np.array([[abs(x - u) + abs(y - v) for u, v in coords]
                     for x, y in coords], dtype=np.int64)


def test_four_point_tied_maxima():
    # unit cycles and a grid: many quadruples share the maximum, so the
    # witness pins the lex-first choice and the masked diagonal k = l
    metrics = [path_metric(n, [(v, (v + 1) % n, 1) for v in range(n)])
               for n in range(6, 14)]
    metrics.append(grid_l1_metric(4))
    for d in metrics:
        assert _basepoint_excess_py(d) > 0
        assert as_ints(_kernels.four_point_scan(d)) == \
            as_ints(_four_point_py(d))
    # on a metric the diagonal scores 0; off the triangle inequality, with
    # d(0, 1) = 10 and points 2..5 at distance 0, the cell k = l = 2 ties
    # the maximum ahead of (k, l) = (2, 3) unless it is masked
    d = np.ones((6, 6), dtype=np.int64)
    d[2:, 2:] = 0
    np.fill_diagonal(d, 0)
    d[0, 1] = d[1, 0] = 10
    assert as_ints(_kernels.four_point_scan(d)) == \
        as_ints(_four_point_py(d)) == (8, 0, 1, 2, 3)


def test_four_point_scan_memory_is_flat():
    n = 140
    d = random_metric_ints(n, 3)
    itemsize = np.dtype(_kernels.scan_dtype(int(d.max()))).itemsize
    assert _basepoint_excess_py(d) > 0
    assert _kernels.SCAN_BLOCK >= (n - 2) ** 2
    _kernels.four_point_scan(d)
    tracemalloc.start()
    try:
        _kernels.four_point_scan(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the four buffers; the m x m differences, two of one j and one of the
    # j before; the scan-dtype copy, row_best and the int64 row_arg; numpy's
    # ufunc iteration buffers, one per operand; small arrays and objects
    bound = (4 * _kernels.SCAN_BLOCK * itemsize + 3 * (n - 2) ** 2 * itemsize
             + n * n * (2 * itemsize + 8) + 3 * np.getbufsize() * itemsize
             + 2 ** 14)
    assert peak < bound


def one_entry_changed(d, rng):
    """d with one off-diagonal distance, and its mirror, moved by +-1."""
    d = d.copy()
    i, j = rng.sample(range(len(d)), 2)
    step = rng.choice((-1, 1))
    d[i, j] += step
    d[j, i] += step
    return d


def diagonal_raised(d, rng):
    """d with one d(x, x), x != 0, raised past 2 d(0, x).  That moves only
    G[x][x], below G[x][0] = 0, and no term with x != y of V0 reads G[x][x]
    except as min(G[x][x], G[x][y]) - G[x][y] <= 0: a symmetric non-metric
    whose only positive terms of V0 are the G[x][z] - G[x][x] ones."""
    d = d.copy()
    x = rng.randrange(1, len(d))
    d[x, x] = 2 * d[0, x] + rng.randint(1, 3)
    return d


def test_basepoint_certificate_matches_the_loop():
    # the O(n^2) decision against the O(n^3) loop, on inputs with V0 = 0 and
    # V0 > 0; each family also pins which outcomes it reaches
    rng = random.Random(7)
    trees = [path_metric(n, random_tree(n, rng))
             for n in (1, 2, 3, 4, 5, 8, 13, 21, 34) for _ in range(3)]
    lines = [np.abs(np.subtract.outer(xs, xs))
             for xs in (np.array([rng.randint(0, 40) for _ in range(n)])
                        for n in (4, 9, 17))]
    families = {
        "tree": (trees + lines, {True}),
        "tree plus edge": ([tree_plus_edge(seed) for seed in (3, 11, 29, 55)],
                           {False}),
        "l1": ([random_metric_ints(n, seed) for n in (4, 6, 12, 25)
                for seed in range(3)], {True, False}),
        "one entry changed": ([one_entry_changed(d, rng) for d in trees
                               if len(d) > 1 for _ in range(4)],
                              {True, False}),
        "diagonal raised": ([diagonal_raised(d, rng) for d in trees
                             if len(d) > 1], {False}),
    }
    for name, (metrics, outcomes) in families.items():
        decided = set()
        for d in metrics:
            got = basepoint_certificate(d.tolist())
            assert got == (_basepoint_excess_py(d) == 0), (name, d)
            decided.add(got)
        assert decided == outcomes, name
    # with the raised diagonal back at 0 each of those is a tree metric
    for d in families["diagonal raised"][0]:
        np.fill_diagonal(d, 0)
        assert basepoint_certificate(d.tolist())


def test_four_point_witness_reproduces_value():
    d = random_metric_ints(15, 5)
    two_delta, i, j, k, l = _kernels.four_point_scan(d)
    s = sorted([d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k]],
               reverse=True)
    assert s[0] - s[1] == two_delta


def test_floyd_warshall_backends_agree():
    rng = np.random.default_rng(3)
    n = 30
    w = np.full((n, n), _kernels.INF, dtype=np.int64)
    np.fill_diagonal(w, 0)
    for _ in range(120):
        i, j = rng.integers(0, n, 2)
        if i != j:
            w[i, j] = w[j, i] = int(rng.integers(1, 20))
    got = _kernels.floyd_warshall(w)
    assert (got == _floyd_warshall_py(w)).all()


def test_scale_to_int_exact():
    vals = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)]
    ints, scale = _kernels.scale_to_int(vals)
    assert scale == 6
    assert ints == [2, 3, 5]
    with pytest.raises(OverflowError):
        _kernels.scale_to_int([Fraction(1, 10 ** 30), 1])


def test_scale_to_int_mixed_empty_and_refused():
    vals = [3, Fraction(1, 6), Fraction(-5, 4), 0, Fraction(7, 1), -2,
            Fraction(9, 10)]
    ints, scale = _kernels.scale_to_int(iter(vals))
    assert scale == 60
    assert ints == [180, 10, -75, 0, 420, -120, 54]
    assert [Fraction(x, scale) for x in ints] == vals
    assert all(type(x) is int for x in ints)
    assert _kernels.scale_to_int([]) == ([], 1)
    # 2**40 is the largest scaled magnitude the kernels accept
    assert _kernels.scale_to_int([-2 ** 40, 5]) == ([-2 ** 40, 5], 1)
    assert _kernels.scale_to_int([Fraction(2 ** 40 - 1, 2), 1]) == (
        [2 ** 40 - 1, 2], 2)
    for refused in ([2 ** 40 + 1], [-2 ** 40 - 1], [Fraction(1, 2), 2 ** 39 + 1]):
        with pytest.raises(OverflowError, match="too large for the int64"):
            _kernels.scale_to_int(refused)
