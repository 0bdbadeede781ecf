import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from test_kernels import _four_point_py

from bgkit import _kernels
from bgkit.actions import LeftTranslationAction
from bgkit.exact import DomainError
from bgkit.groups import FreeFamily
from bgkit.hyperbolicity import (convexity_defect, four_point_delta,
                                 gromov_tripod, thin_triangle_delta)
from bgkit.probes import cocompact_bg_check
from bgkit.spaces import point_key
from bgkit.finite_spaces import FiniteMetricSpace, TripodSpace, WeightedGraph


def cycle_graph(n):
    return WeightedGraph(list(range(n)),
                         [(i, (i + 1) % n, 1) for i in range(n)])


def path_graph(n):
    return WeightedGraph(list(range(n)), [(i, i + 1, 1) for i in range(n - 1)])


def star_tree():
    verts = ["c"] + [f"leaf{i}" for i in range(5)]
    return WeightedGraph(verts, [("c", f"leaf{i}", i + 1) for i in range(5)])


def oracle_four_point(space, pts):
    best = Fraction(0)
    for a, b, c, d in itertools.combinations(pts, 4):
        s1 = space.distance(a, b) + space.distance(c, d)
        s2 = space.distance(a, c) + space.distance(b, d)
        s3 = space.distance(a, d) + space.distance(b, c)
        hi, mid, _lo = sorted((s1, s2, s3), reverse=True)
        best = max(best, (hi - mid) / 2)
    return best


def test_gromov_tripod_values():
    metric = FiniteMetricSpace([[0, 5, 4], [5, 0, 3], [4, 3, 0]], labels="xyz")
    t = gromov_tripod(metric, "x", "y", "z")
    assert (t.alpha, t.beta, t.gamma) == (3, 2, 1)
    assert (t.alpha + t.beta, t.alpha + t.gamma, t.beta + t.gamma) == (5, 4, 3)
    equi = FiniteMetricSpace([[0, 2, 2], [2, 0, 2], [2, 2, 0]], labels="xyz")
    t = gromov_tripod(equi, "x", "y", "z")
    assert (t.alpha, t.beta, t.gamma) == (1, 1, 1)


def test_gromov_tripod_degenerate_and_invalid():
    line = path_graph(4)
    t = gromov_tripod(line, 0, 3, 3)
    assert (t.alpha, t.beta, t.gamma) == (3, 0, 0)
    bad = FiniteMetricSpace([[0, 10, 1], [10, 0, 1], [1, 1, 0]], labels="abc",
                            validate=False)
    with pytest.raises(DomainError):
        gromov_tripod(bad, "a", "b", "c")


def test_four_point_trees_are_zero():
    tripod = TripodSpace(3, 2, 1)
    assert four_point_delta(tripod).delta == 0
    tree = star_tree()
    assert four_point_delta(tree).delta == 0
    free = LeftTranslationAction(FreeFamily(2)).space
    ball = [p for p, _ in free.ball((), 3, closed=True)]
    assert four_point_delta(free, points=ball).delta == 0


def test_four_point_free2_radius5_past_the_cap():
    # 485 points: the basepoint certificate proves delta = 0 in O(n^2), so
    # the witness is the first four points in sorted order
    free = LeftTranslationAction(FreeFamily(2)).space
    ball = [p for p, _ in free.ball((), 5, closed=True)]
    assert len(ball) == 485
    rep = four_point_delta(free, points=ball, cap=500)
    assert (rep.delta, rep.points_used) == (0, 485)
    assert rep.witness == tuple(sorted(ball, key=point_key)[:4])


def test_four_point_one_distance_per_pair(monkeypatch):
    free = LeftTranslationAction(FreeFamily(2)).space
    ball = [p for p, _ in free.ball((), 2, closed=True)]
    calls = []
    original = FreeFamily.word_distance

    def counted(self, x, y):
        calls.append(frozenset((x, y)))
        return original(self, x, y)

    monkeypatch.setattr(FreeFamily, "word_distance", counted)
    rep = four_point_delta(free, points=ball)
    n = len(ball)
    assert len(calls) == len(set(calls)) == n * (n - 1) // 2
    assert rep.delta == 0


def test_four_point_cycles():
    c4 = cycle_graph(4)
    rep = four_point_delta(c4)
    assert rep.delta == 1
    assert rep.method == "four_point_exhaustive"
    c6 = cycle_graph(6)
    assert four_point_delta(c6).delta == oracle_four_point(c6, c6.vertices)


def test_four_point_complete_graph():
    k4 = FiniteMetricSpace([[0 if i == j else 1 for j in range(4)]
                            for i in range(4)])
    assert four_point_delta(k4).delta == 0


def test_four_point_matches_oracle_on_rational_weights():
    graph = WeightedGraph(
        list(range(6)),
        [(0, 1, Fraction(1, 2)), (1, 2, Fraction(3, 7)), (2, 3, 1),
         (3, 4, Fraction(5, 3)), (4, 5, Fraction(2, 5)), (5, 0, 1),
         (1, 4, Fraction(1, 3))])
    rep = four_point_delta(graph)
    assert rep.delta == oracle_four_point(graph, graph.vertices)
    # witness reproduces the reported value
    a, b, c, d = rep.witness
    s = sorted([graph.distance(a, b) + graph.distance(c, d),
                graph.distance(a, c) + graph.distance(b, d),
                graph.distance(a, d) + graph.distance(b, c)], reverse=True)
    assert (s[0] - s[1]) / 2 == rep.delta


def test_four_point_sampled_lower_bound():
    c6 = cycle_graph(6)
    full = four_point_delta(c6).delta
    sampled = four_point_delta(c6, mode="sampled", count=200, seed=3).delta
    assert sampled <= full
    # determinism of the sampled mode
    again = four_point_delta(c6, mode="sampled", count=200, seed=3).delta
    assert sampled == again


def test_four_point_small_sets_read_the_mode_first():
    # fewer than four points: delta 0 under the method name of the mode, and
    # an unknown mode is refused as it is for four points or more
    free = LeftTranslationAction(FreeFamily(2)).space
    three = [(), (1,), (2,)]
    for points in ([], [()], three):
        rep = four_point_delta(free, points=points)
        assert (rep.delta, rep.method, rep.witness, rep.points_used) == (
            0, "four_point_exhaustive", (), len(points))
        rep = four_point_delta(free, points=points, mode="sampled", count=7,
                               seed=2)
        assert rep.method == "four_point_sampled(seed=2,count=7)"
        assert (rep.delta, rep.witness) == (0, ())
    for points in (three, three + [(-1,)]):
        with pytest.raises(DomainError, match="unknown four-point mode 'junk'"):
            four_point_delta(free, points=points, mode="junk")


def test_four_point_cap():
    big = path_graph(40)
    with pytest.raises(DomainError):
        four_point_delta(big, cap=10)


def test_four_point_vertex_subset_skips_all_pairs(monkeypatch):
    # a random connected 400-vertex graph with weights in sixths
    rng = random.Random(5)
    n = 400
    edges = [(rng.randrange(i), i, Fraction(rng.randint(1, 12), 6))
             for i in range(1, n)]
    edges += [(*rng.sample(range(n), 2), Fraction(rng.randint(1, 12), 6))
              for _ in range(n)]
    graph = WeightedGraph(list(range(n)), edges)
    subset = sorted(rng.sample(range(n), 20), key=point_key)
    # oracle distances in sixths: a numpy min-plus closure of the edges
    dist = np.full((n, n), 10 ** 9, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u, v, w in edges:
        dist[u, v] = dist[v, u] = min(dist[u, v], int(w * 6))
    for k in range(n):
        np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :], out=dist)
    two_delta, *quad = _four_point_py(dist[np.ix_(subset, subset)])

    def refuse(*_args):
        raise AssertionError("a vertex subset must not build all pairs")

    monkeypatch.setattr(WeightedGraph, "distance_matrix", refuse)
    monkeypatch.setattr(_kernels, "graph_distances", refuse)
    rep = four_point_delta(graph, points=subset)
    assert rep.delta == Fraction(int(two_delta), 12)
    assert rep.witness == tuple(subset[i] for i in quad)


def test_four_point_takes_no_fraction_distances(monkeypatch):
    graph = WeightedGraph(list(range(6)), [
        (0, 1, Fraction(1, 2)), (1, 2, Fraction(3, 7)), (2, 3, 1),
        (3, 4, Fraction(5, 3)), (4, 5, Fraction(2, 5)), (5, 0, 1),
        (1, 4, Fraction(1, 3))])
    expected = oracle_four_point(graph, graph.vertices)
    free = LeftTranslationAction(FreeFamily(2)).space
    ball = [p for p, _ in free.ball((), 2, closed=True)]

    def refuse(*_args):
        raise AssertionError("four_point_delta must not call space.distance")

    monkeypatch.setattr(WeightedGraph, "distance", refuse)
    monkeypatch.setattr(type(free), "distance", refuse)
    assert four_point_delta(graph).delta == expected
    assert four_point_delta(free, points=ball).delta == 0


def test_four_point_disconnected_graph_texts():
    graph = WeightedGraph(list(range(6)), [(0, 1, 1), (1, 2, 1), (2, 0, 1),
                                           (3, 4, 1), (4, 5, 1)])
    with pytest.raises(DomainError,
                       match="four-point scan over a disconnected graph"):
        four_point_delta(graph)
    with pytest.raises(DomainError, match="no path between"):
        four_point_delta(graph, points=[0, 1, 2, 3])


def test_four_point_refuses_distances_past_the_kernel_range():
    far = FiniteMetricSpace([[0 if i == j else 2 ** 40 + 1 for j in range(4)]
                             for i in range(4)])
    with pytest.raises(OverflowError, match="too large for the int64 kernels"):
        four_point_delta(far)
    near = FiniteMetricSpace([[0 if i == j else 2 ** 40 for j in range(4)]
                              for i in range(4)])
    assert four_point_delta(near).delta == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cocompact_bg_check_refuses_non_finite_values(bad):
    # a NaN right-hand side would read as "verified" in every pair
    act = LeftTranslationAction(FreeFamily(2))
    with pytest.raises(DomainError, match="exponent K must be finite"):
        cocompact_bg_check(act, (), delta=0, D=0, K=bad, pairs=[(1, 2)])
    with pytest.raises(DomainError, match="cannot interpret"):
        cocompact_bg_check(act, (), delta=bad, D=0, K=1, pairs=[(1, 2)])


def test_thin_triangle_trees():
    assert thin_triangle_delta(star_tree()).delta == 0
    assert thin_triangle_delta(path_graph(6)).delta == 0
    two = WeightedGraph([0, 1], [(0, 1, 1)])
    assert thin_triangle_delta(two).delta == 0


def test_thin_triangle_c6():
    rep = thin_triangle_delta(cycle_graph(6))
    # the inscribed (2,2,2) triangle has all three midpoints in one fiber
    assert rep.delta == 2


def test_thin_triangle_samples_past_count():
    # C8 has 56 vertex triples: past `count` a seeded sample of them is
    # scanned, the same one per seed, and its value is at most the value
    # over all triples
    graph = cycle_graph(8)
    full = thin_triangle_delta(graph)
    assert full.method == "thin_triangle(all vertex triples)"
    triples = list(itertools.combinations(range(8), 3))
    for seed in (0, 1, 2):
        rep = thin_triangle_delta(graph, count=10, seed=seed)
        assert rep.method == f"thin_triangle(sampled,count=10,seed={seed})"
        assert rep == thin_triangle_delta(graph, count=10, seed=seed)
        assert rep.points_used == 8 and rep.delta <= full.delta
        assert rep.witness[0] in random.Random(seed).sample(triples, 10)


def test_convexity_defect_path_and_tree():
    assert convexity_defect(path_graph(6)).defect == 0
    assert convexity_defect(star_tree()).defect == 0


def test_convexity_defect_c6_positive():
    rep = convexity_defect(cycle_graph(6), grid=8)
    assert rep.defect > 0
    o, y0, y1, t = rep.witness
    p0 = cycle_graph(6).lex_geodesic(o, y0)
    assert p0[0] == o


def test_convexity_defect_grid_validation():
    with pytest.raises(DomainError):
        convexity_defect(path_graph(4), grid=1)


def test_cocompact_bg_check_free_group():
    import math
    from bgkit.probes import cocompact_bg_check
    act = LeftTranslationAction(FreeFamily(2))
    pairs = [(r, 2 * r) for r in range(1, 11)]
    rows = cocompact_bg_check(act, (), delta=0, D=0, K=math.log(3), pairs=pairs)
    doubling = [row for row in rows if row.formula == "counting-doubling(ii)"]
    assert len(doubling) == 10
    assert all(row.holds for row in doubling)
    # exact conservative ratio at r = 3: closed(6) over open(3)
    row3 = next(row for row in doubling if row.r == 3)
    assert row3.lhs == Fraction(2 * 3 ** 6 - 1, 2 * 3 ** 2 - 1)
    tails = [row for row in rows if row.formula == "counting-tail(ii)"]
    assert all(row.holds for row in tails)


def test_cocompact_bg_check_skips_below_scale():
    import math
    from bgkit.probes import cocompact_bg_check
    act = LeftTranslationAction(FreeFamily(2))
    rows = cocompact_bg_check(act, (), delta=Fraction(1, 2), D=0,
                              K=math.log(3), pairs=[(2, 4), (5, 10)])
    skipped = [row for row in rows if row.note]
    assert any("skipped" in row.note for row in skipped)
    checked = [row for row in rows if row.holds is not None]
    assert all(row.holds for row in checked)


def test_cocompact_bg_check_torus_cover_pairs():
    # sublattice setup: measured four-point delta on a sample, analytic D
    from bgkit.actions import LatticeTranslationAction
    from bgkit.groups import FreeAbelianFamily
    from bgkit.probes import cocompact_bg_check
    from bgkit.measures import VertexMeasure
    from bgkit.spaces import CayleySpace
    space = CayleySpace(FreeAbelianFamily(2))
    act = LatticeTranslationAction(space, [[5, 0], [0, 5]])
    sample = [p for p, _ in space.ball((0, 0), 3, closed=True)]
    delta = four_point_delta(space, points=sample).delta
    assert delta == 2
    D = act.quotient_diameter()
    # scales: invariant form needs r >= (5/2)(7D + 4 delta) = 90,
    # counting form needs r >= 10(D + delta) = 60
    rows = cocompact_bg_check(act, (0, 0), delta=delta, D=D, K=0.1,
                              pairs=[(60, 80), (90, 110)],
                              measure=VertexMeasure())
    checked = [row for row in rows if row.holds is not None]
    assert len(checked) >= 4
    assert all(row.holds for row in checked)
    skipped = [row for row in rows if row.holds is None]
    assert any("skipped" in row.note for row in skipped)
