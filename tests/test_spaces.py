import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from bgkit import hyperbolicity, spaces
from bgkit.covers import DeckFamily, universal_cover
from bgkit.exact import DomainError, WindowError
from bgkit.groups import FreeAbelianFamily, FreeFamily, TrivialFamily
from bgkit.permutations import FinitePermutationFamily, ProductFamily
from bgkit.spaces import CayleySpace, GluedLineSpace, enumerate_ball
from bgkit.finite_spaces import FiniteMetricSpace, TripodSpace, WeightedGraph


def lattice(k=2):
    return CayleySpace(FreeAbelianFamily(k))


def free_cayley(k=2):
    return CayleySpace(FreeFamily(k))


def grid_graph(n):
    verts = [(i, j) for i in range(n) for j in range(n)]
    edges = []
    for i, j in verts:
        if i + 1 < n:
            edges.append(((i, j), (i + 1, j), 1))
        if j + 1 < n:
            edges.append(((i, j), (i, j + 1), 1))
    return WeightedGraph(verts, edges)


def cycle_graph(n, weight=1):
    verts = list(range(n))
    edges = [(i, (i + 1) % n, weight) for i in range(n)]
    return WeightedGraph(verts, edges)


# -- distances --------------------------------------------------------------


def test_distance_identity_everywhere():
    gl = GluedLineSpace("1/10", "1/2", 30)
    tri = TripodSpace(3, 2, 1)
    grid = grid_graph(4)
    for space, pt in [(gl, gl.tip(3)), (tri, "y"), (grid, (2, 1)),
                      (lattice(), (0, 0)), (free_cayley(), (1, 2))]:
        assert space.distance(pt, pt) == 0


def test_glued_line_tip_distances():
    gl = GluedLineSpace("1/10", "1/2", 30)
    # tip to tip crosses both hairs and the base segment
    assert gl.distance(gl.tip(0), gl.tip(3)) == Fraction(13, 10)
    assert gl.distance(gl.tip(0), gl.tip(1)) == Fraction(11, 10)
    assert gl.distance(gl.tip(0), gl.base(0)) == Fraction(1, 2)


def discretized_graph(gl):
    """Graph model of a glued line: attachment points chained, hairs pendant."""
    vertices = []
    edges = []
    for k in range(-gl.window, gl.window + 1):
        vertices.append(("b", k))
        vertices.append(("t", k))
        edges.append((("b", k), ("t", k), gl.hair))
        if k > -gl.window:
            edges.append((("b", k - 1), ("b", k), gl.eps))
    return WeightedGraph(vertices, edges)


def test_glued_line_matches_discretized_graph():
    gl = GluedLineSpace("1/10", "1/2", 12)
    graph = discretized_graph(gl)
    for k, l in itertools.combinations(range(-12, 13), 2):
        direct = gl.distance(gl.tip(k), gl.tip(l))
        via_graph = graph.vertex_distance(("t", k), ("t", l))
        assert direct == via_graph


def test_tripod_distances():
    tri = TripodSpace(3, 2, 1)
    assert tri.distance("x", "y") == 5
    assert tri.distance("c", "x") == 3
    equi = TripodSpace(1, 1, 1)
    assert {equi.distance(a, b) for a, b in [("x", "y"), ("y", "z"), ("x", "z")]} == {2}
    degenerate = TripodSpace(0, 0, 0)
    assert degenerate.distance("x", "z") == 0
    assert degenerate.validate()["issues"]   # degeneracy is reported


def test_build_validations():
    with pytest.raises(DomainError):
        GluedLineSpace(0, 1, 5)
    with pytest.raises(DomainError):
        GluedLineSpace(1, -1, 5)
    with pytest.raises(DomainError):
        TripodSpace(-1, 0, 0)


def test_metric_axioms_on_sampled_triples():
    rng = random.Random(42)
    gl = GluedLineSpace("1/10", "1/2", 10)
    tri = TripodSpace(3, 2, 1)
    grid = grid_graph(4)
    cay = lattice()
    candidates = {
        gl: gl.support(),
        tri: tri.support(),
        grid: grid.support(),
        cay: [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(20)],
    }
    for space, pts in candidates.items():
        for _ in range(300):
            x, y, z = (rng.choice(pts) for _ in range(3))
            dxy, dyz, dxz = (space.distance(x, y), space.distance(y, z),
                             space.distance(x, z))
            assert dxy == space.distance(y, x)
            assert dxz <= dxy + dyz
            assert dxy >= 0


# -- balls -------------------------------------------------------------------


def test_lattice_ball_counts():
    cay = lattice()
    assert len(enumerate_ball(cay, (0, 0), 3, closed=False)) == 13
    assert len(enumerate_ball(cay, (0, 0), 3, closed=True)) == 25
    # closed count 2r^2+2r+1 for a few radii
    for r in range(0, 7):
        assert len(enumerate_ball(cay, (0, 0), r, closed=True)) == 2 * r * r + 2 * r + 1
        assert sum(cay.ball_spheres(r, closed=True)) == 2 * r * r + 2 * r + 1


def test_free_group_ball_counts():
    cay = free_cayley(2)
    e = cay.identity()
    for r in range(0, 6):
        assert len(enumerate_ball(cay, e, r, closed=True)) == 2 * 3 ** r - 1
        assert sum(cay.ball_spheres(r, closed=True)) == 2 * 3 ** r - 1
    assert len(enumerate_ball(cay, e, 3, closed=True)) == 53


def test_ball_zero_radius_and_monotonicity():
    cay = lattice()
    assert enumerate_ball(cay, (0, 0), 0, closed=False) == []
    prev = set()
    for r in [Fraction(1, 2), 1, Fraction(3, 2), 2, 3]:
        cur = {p for p, _ in enumerate_ball(cay, (0, 0), r, closed=False)}
        assert prev <= cur
        prev = cur


def test_open_ball_equals_closed_at_previous_support_distance():
    cay = lattice()
    opened = {p for p, _ in enumerate_ball(cay, (0, 0), 3, closed=False)}
    closed_prev = {p for p, _ in enumerate_ball(cay, (0, 0), 2, closed=True)}
    assert opened == closed_prev


def test_glued_line_window_guard():
    gl = GluedLineSpace(1, 1, 3)
    with pytest.raises(WindowError):
        enumerate_ball(gl, gl.base(0), 10, closed=True)


def test_cayley_support_is_guarded():
    with pytest.raises(WindowError):
        lattice().support()


@pytest.mark.parametrize("family", [
    FinitePermutationFamily([(1, 2, 3, 0), (1, 0, 2, 3)]), TrivialFamily()],
    ids=["S4", "trivial"])
def test_cayley_ball_at_a_huge_radius_is_the_whole_finite_group(family):
    # the sphere sizes stop at the first empty sphere, as every later one
    # is empty too, so radius 10**30 costs what the group's diameter does
    space = CayleySpace(family)
    whole = [family.identity()]
    if isinstance(family, FinitePermutationFamily):
        whole = family.elements()
    spheres = space.ball_spheres(10 ** 30, closed=True)
    assert sum(spheres) == len(whole) and spheres[-1] == 0
    ball = space.ball(family.identity(), 10 ** 30, closed=True)
    assert sorted(p for p, _d in ball) == sorted(whole)


@pytest.mark.parametrize("family", [
    FreeFamily(2), FreeAbelianFamily(2),
    ProductFamily([FreeFamily(1), FreeAbelianFamily(2)])],
    ids=["free2", "lattice2", "product"])
@pytest.mark.parametrize("r", [20000, 10 ** 30])
def test_cayley_ball_over_the_budget_is_refused_at_a_lower_bound(family, r):
    # the sizes are read to growing lengths and the refusal comes once
    # their total passes the budget, or at once for a word radius past it,
    # so its count is a lower bound
    with pytest.raises(WindowError, match=(
            rf"^ball of radius {r} holds at least \d+ elements, "
            rf"over the enumeration budget {spaces.ENUMERATION_BUDGET}$")):
        CayleySpace(family).ball_spheres(r, closed=True)


@pytest.mark.parametrize("family", [
    FreeAbelianFamily(1), FreeFamily(2),
    ProductFamily([FinitePermutationFamily([(1, 0)]), FreeAbelianFamily(1)])],
    ids=["line1", "free2", "product"])
def test_cayley_ball_past_the_budget_is_refused_before_any_read(family,
                                                                monkeypatch):
    # a generator of infinite order leaves no sphere empty, so word length
    # n >= the budget gives n + 1 elements: refused with that count, unread
    budget = spaces.ENUMERATION_BUDGET
    monkeypatch.setattr(family, "sphere_sizes", None)
    for r, closed, count in ((budget, True, budget + 1),
                             (Fraction(2 * budget + 1, 2), False, budget + 1),
                             (10 ** 30, True, 10 ** 30 + 1)):
        with pytest.raises(WindowError, match=(
                rf"^ball of radius {r} holds at least {count} elements, "
                rf"over the enumeration budget {budget}$")):
            CayleySpace(family).ball_spheres(r, closed)
    assert spaces.has_infinite_order(family)
    assert not spaces.has_infinite_order(FinitePermutationFamily([(1, 0)]))


@pytest.mark.parametrize("family, big", [
    (FreeFamily(2), 7), (FreeAbelianFamily(2), 30), (TrivialFamily(), 30),
    (FinitePermutationFamily([(1, 2, 0), (1, 0, 2)]), 30),
    (ProductFamily([FreeAbelianFamily(1), FinitePermutationFamily([(1, 0)])]),
     30)],
    ids=["free2", "lattice2", "trivial", "S3", "product"])
def test_cayley_ball_walks_the_spheres_it_counts(family, big):
    # the walk has one sphere per size `ball_spheres` counts, empty ones
    # past a finite group's diameter included, and each has that size
    space = CayleySpace(family)
    e = family.identity()
    for r in (0, Fraction(1, 2), 1, Fraction(5, 2), 4, big):
        for closed in (False, True):
            spheres = space.ball_spheres(r, closed)
            ball = space.ball(e, r, closed)
            sizes = [0] * len(spheres)
            for _p, d in ball:
                sizes[int(d)] += 1
            assert sizes == spheres, (r, closed)
            assert ball == sorted(
                ball, key=lambda pd: (pd[1], spaces.point_key(pd[0])))
    assert space.ball(e, 0) == [] and space.ball(e, -3, closed=True) == []


# -- validate ---------------------------------------------------------------


def test_validate_finite_metric():
    good = FiniteMetricSpace([[0, 5, 4], [5, 0, 3], [4, 3, 0]], labels="abc")
    assert good.validate()["ok"]
    bad = FiniteMetricSpace([[0, 10, 1], [10, 0, 1], [1, 1, 0]], labels="abc",
                            validate=False)
    report = bad.validate()
    assert not report["ok"]
    assert any("triangle" in issue for issue in report["issues"])
    with pytest.raises(DomainError):
        FiniteMetricSpace([[0, 10, 1], [10, 0, 1], [1, 1, 0]])


def test_finite_metric_spec_without_validation_lists_each_issue():
    spec = {"kind": "finite_metric", "labels": ["a", "b", "c"],
            "matrix": [[1, 2, 1], ["3", 0, -1], [1, -1, 0]]}
    with pytest.raises(DomainError, match="^invalid metric: nonzero diagonal"):
        spaces.space_from_spec(spec)
    space = spaces.space_from_spec({**spec, "validate": False})
    assert isinstance(space, FiniteMetricSpace)
    assert space.distance("b", "a") == 3
    report = space.validate()
    assert report["kind"] == "finite_metric" and not report["ok"]
    assert report["issues"][:3] == ["nonzero diagonal at a",
                                    "asymmetry at (a,b)",
                                    "negative distance at (b,c)"]
    assert all(issue.startswith("triangle violation: ")
               for issue in report["issues"][3:])


def test_validate_disconnected_graph():
    graph = WeightedGraph([0, 1, 2, 3], [(0, 1, 1), (2, 3, 1)])
    report = graph.validate()
    assert not report["ok"]
    assert any("disconnected" in issue for issue in report["issues"])
    with pytest.raises(DomainError):
        graph.vertex_distance(0, 3)
    # all pairs of a whole graph come from one path, which refuses the gap
    for whole_graph in (graph.distance_matrix, graph.diameter):
        with pytest.raises(DomainError, match="no path between 0 and 2"):
            whole_graph()


def test_graph_edge_refusals_name_the_edge_and_its_weight():
    with pytest.raises(DomainError, match=(
            r"^edge weight must be positive: edge \(0, 1\) of weight -1/2$")):
        WeightedGraph([0, 1], [(0, 1, "-1/2")])
    with pytest.raises(DomainError, match=(
            r"^edge endpoint not a vertex: edge \(0, 'x'\) of weight 3/2$")):
        WeightedGraph([0, 1], [(0, "x", Fraction(3, 2))])


def test_graph_edge_points():
    graph = cycle_graph(4)
    mid = graph.edge_point(0, Fraction(1, 2))
    assert graph.distance(mid, 0) == Fraction(1, 2)
    assert graph.distance(mid, 2) == Fraction(3, 2)
    assert graph.edge_point(0, 0) == 0
    assert graph.edge_point(0, 1) == 1


def test_lex_geodesic_and_point_along():
    grid = grid_graph(4)
    path = grid.lex_geodesic((0, 0), (2, 2))
    assert path[0] == (0, 0) and path[-1] == (2, 2)
    assert grid.path_length(path) == 4
    quarter = grid.point_along(path, Fraction(1, 2))
    assert grid.distance((0, 0), quarter) == Fraction(1, 2)
    # deterministic: repeated materialization gives the same path
    assert path == grid.lex_geodesic((0, 0), (2, 2))
    # parallel edges: a path runs along the lightest, the lowest id among
    # equally light ones, whichever way the edge is stored
    multi = WeightedGraph([0, 1, 2], [(0, 1, 3), (1, 0, 1), (1, 2, 1),
                                      (1, 2, 1)])
    assert multi.lightest_edge(0, 1) == (1, 1)
    assert multi.lightest_edge(2, 1) == (1, 2)
    assert multi.path_length([0, 1, 2]) == 2
    assert hyperbolicity._prefix_lengths(multi, [0, 1, 2]) == [0, 1, 2]
    assert multi.point_along([0, 1, 2], Fraction(1, 4)) == \
        multi.edge_point(1, Fraction(3, 4))
    assert multi.point_along([0, 1, 2], Fraction(3, 2)) == \
        multi.edge_point(2, Fraction(1, 2))


# -- imports -----------------------------------------------------------------


def test_cli_import_and_model_volumes_need_neither_numpy_nor_scipy():
    code = "\n".join([
        "import sys",
        "import bgkit.cli",
        "assert 'numpy' not in sys.modules, 'numpy'",
        "assert 'scipy' not in sys.modules, 'scipy'",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_space_from_spec_roundtrip():
    spec = {"kind": "glued_line", "eps": "1/10", "hair_length": "1/2", "window": 5}
    gl = spaces.space_from_spec(spec)
    assert isinstance(gl, GluedLineSpace)
    assert gl.distance(gl.tip(0), gl.tip(1)) == Fraction(11, 10)
    tri = spaces.space_from_spec({"kind": "tripod", "alpha": 3, "beta": 2, "gamma": 1})
    assert isinstance(tri, TripodSpace)
    cay = spaces.space_from_spec({"kind": "cayley",
                                  "group": {"family": "free", "params": 2}})
    assert sum(cay.ball_spheres(3, closed=True)) == 53


def test_distance_matrix_kernel_matches_dijkstra():
    rng = random.Random(11)
    verts = list(range(14))
    edges = []
    for i in range(13):
        edges.append((i, i + 1, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
    for _ in range(8):
        u, v = rng.sample(verts, 2)
        edges.append((u, v, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
    graph = WeightedGraph(verts, edges)
    matrix = graph.distance_matrix()
    for i, u in enumerate(verts):
        for j, v in enumerate(verts):
            assert matrix[i][j] == graph.vertex_distance(u, v)
    assert graph.diameter() == max(c for row in matrix for c in row)


# -- scaled distances -------------------------------------------------------


def assert_scaled_matches_loop(space, points):
    """scaled_distances, and scaled_distances_to every point, against a
    plain space.distance loop over every ordered pair; returns the scale of
    scaled_distances."""
    scale, rows = space.scaled_distances(points)
    assert type(scale) is int and scale >= 1
    assert len(rows) == len(points)
    for a, row in zip(points, rows):
        assert len(row) == len(points)
        for b, cell in zip(points, row):
            assert type(cell) is int
            assert Fraction(cell, scale) == space.distance(a, b)
    for x in points:
        row_scale, row = space.scaled_distances_to(points, x)
        assert type(row_scale) is int and row_scale >= 1
        assert all(type(cell) is int for cell in row)
        assert [Fraction(cell, row_scale) for cell in row] == \
            [space.distance(p, x) for p in points]
    return scale


def random_weighted_graph(seed, n=12, extra=8):
    rng = random.Random(seed)
    verts = list(range(n))
    edges = [(rng.randrange(i), i, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
             for i in range(1, n)]
    for _ in range(extra):
        u, v = rng.sample(verts, 2)
        edges.append((u, v, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
    return WeightedGraph(verts, edges)


def test_scaled_distances_finite_metric_with_fractions():
    positions = [Fraction(0), Fraction(1, 2), Fraction(5, 3), Fraction(9, 4)]
    space = FiniteMetricSpace([[abs(a - b) for b in positions]
                               for a in positions], labels="abcd")
    assert assert_scaled_matches_loop(space, list("dbca")) == 12


def test_scaled_distances_whole_graph_reads_the_kernel(monkeypatch):
    graph = random_weighted_graph(3)
    points = list(reversed(graph.vertices))

    def refuse(*_args):
        raise AssertionError("a whole graph must not take per-pair distances")

    expected = [[graph.distance(a, b) for b in points] for a in points]
    monkeypatch.setattr(WeightedGraph, "distance", refuse)
    monkeypatch.setattr(WeightedGraph, "vertex_distance", refuse)
    scale, rows = graph.scaled_distances(points)
    # the edge-weight scale, not the lcm of the distances' denominators
    assert scale == math.lcm(*{w.denominator for _u, _v, w in graph.edges})
    assert all(type(cell) is int for row in rows for cell in row)
    assert [[Fraction(c, scale) for c in row] for row in rows] == expected


def test_scaled_distances_graph_subset_and_edge_points():
    graph = random_weighted_graph(4)
    assert_scaled_matches_loop(graph, [7, 2, 11, 0, 5])
    edge_points = [graph.edge_point(eid, graph.edges[eid][2] / 3)
                   for eid in (0, 4, 9)]
    assert_scaled_matches_loop(graph, edge_points + [1, 6])
    # every vertex plus an edge point is not the whole vertex set
    assert_scaled_matches_loop(graph, graph.vertices + edge_points[:1])


def test_graph_row_runs_one_shortest_path_search():
    graph = random_weighted_graph(6, n=40)
    row = graph.scaled_distances_to(graph.vertices, 7)
    assert list(graph._dist_cache) == [7]
    assert [Fraction(d, row[0]) for d in row[1]] == \
        [graph.distance(p, 7) for p in graph.vertices]


def test_scaled_distances_disconnected_graph():
    graph = WeightedGraph([0, 1, 2, 3], [(0, 1, 1), (2, 3, Fraction(1, 2))])
    with pytest.raises(DomainError, match="no path between"):
        graph.scaled_distances([0, 1, 2, 3])
    with pytest.raises(DomainError, match="no path between"):
        graph.scaled_distances([1, 3])
    assert graph.scaled_distances([3, 2]) == (2, [[0, 1], [1, 0]])


def test_scaled_distances_weight_overflow_falls_back_to_dijkstra():
    tiny = Fraction(1, 10 ** 30)
    graph = WeightedGraph([0, 1, 2, 3], [(0, 1, 1), (1, 2, tiny), (2, 3, 2),
                                         (3, 0, Fraction(7, 3))])
    scale = assert_scaled_matches_loop(graph, graph.vertices)
    assert scale == 3 * 10 ** 30
    matrix = graph.distance_matrix()
    assert matrix == [[graph.vertex_distance(u, v) for v in graph.vertices]
                      for u in graph.vertices]
    assert graph.diameter() == Fraction(7, 3)


@pytest.mark.parametrize("family", [
    FreeFamily(2), FreeAbelianFamily(0), FreeAbelianFamily(1),
    FreeAbelianFamily(2), FreeAbelianFamily(3), TrivialFamily(),
    ProductFamily([FreeAbelianFamily(1), FreeFamily(2)]),
    ProductFamily([FreeAbelianFamily(2), FinitePermutationFamily([(1, 2, 0)])]),
    FinitePermutationFamily([(1, 0, 2, 3), (1, 2, 3, 0)]),
], ids=lambda f: f.name)
def test_scaled_distances_cayley(family):
    space = CayleySpace(family)
    ball = [p for p, _d in space.ball(family.identity(), 3, closed=True)]
    points = random.Random(2).sample(ball, min(len(ball), 30))
    for subset in (points, [], points[:1]):
        assert assert_scaled_matches_loop(space, subset) == 1
    # the row primitive is the word_distance loop, point for point: the
    # packing audit reads its distances from it too
    for x in points[:5] + [family.identity()]:
        for subset in (points, [], points[:1]):
            row = family.distances_to(subset, x)
            assert all(type(d) is int for d in row)
            assert row == [family.word_distance(p, x) for p in subset]


def test_deck_distances_to_is_the_word_distance_loop():
    # deck elements have no word length of their own: the row refuses a
    # point as word_distance does, and an empty row is empty
    cover = universal_cover(
        WeightedGraph(["v"], [("v", "v", 1), ("v", "v", 1)]), "v", 5)
    family = DeckFamily(cover)
    gens = [g for _label, g in family.generators()]
    assert family.distances_to([], gens[0]) == []
    with pytest.raises(DomainError) as looped:
        family.word_distance(gens[1], gens[0])
    with pytest.raises(DomainError) as row:
        family.distances_to(gens[1:], gens[0])
    assert str(row.value) == str(looped.value)
    # the cover tree is the space the deck group acts on, and reads the
    # same row primitive
    vertices = random.Random(5).sample(cover.vertices, 25)
    for subset in (vertices, [], vertices[:1]):
        assert assert_scaled_matches_loop(cover.space, subset) == 1


def test_scaled_distances_glued_line_and_tripod():
    gl = GluedLineSpace("1/10", "1/2", 12)
    points = gl.support()[::3] + [("line", Fraction(1, 7)),
                                  ("hair", 2, Fraction(1, 3))]
    assert_scaled_matches_loop(gl, points)
    tri = TripodSpace(Fraction(3, 2), 2, Fraction(1, 3))
    assert assert_scaled_matches_loop(tri, tri.support()) == 6
    assert_scaled_matches_loop(tri, [])


def test_graph_class_still_resolves_under_its_old_module():
    # perfbench reads spaces.WeightedGraph; the class lives in finite_spaces
    from bgkit import finite_spaces
    assert spaces.WeightedGraph is finite_spaces.WeightedGraph
    with pytest.raises(AttributeError, match="no attribute 'TripodSpace'"):
        spaces.TripodSpace
