import random
from fractions import Fraction

import pytest

from bgkit.covers import DeckAction, graph_betti, universal_cover
from bgkit.exact import DomainError, WindowError
from bgkit.hyperbolicity import four_point_delta
from bgkit.measures import PullbackMeasure, VertexMeasure, ball_mass
from bgkit.finite_spaces import WeightedGraph


def cycle_graph(n):
    return WeightedGraph(list(range(n)),
                         [(i, (i + 1) % n, 1) for i in range(n)])


def figure_eight():
    return WeightedGraph(["v"], [("v", "v", 1), ("v", "v", 1)])


def path_graph(n):
    return WeightedGraph(list(range(n)), [(i, i + 1, 1) for i in range(n - 1)])


def test_betti_numbers():
    assert graph_betti(path_graph(5)) == 0
    assert graph_betti(cycle_graph(3)) == 1
    k4 = WeightedGraph(list(range(4)),
                       [(i, j, 1) for i in range(4) for j in range(i + 1, 4)])
    assert graph_betti(k4) == 3
    disconnected = WeightedGraph([0, 1, 2, 3], [(0, 1, 1), (2, 3, 1)])
    report = graph_betti(disconnected)
    assert set(report.values()) == {0}


def test_cycle_cover_is_line():
    cover = universal_cover(cycle_graph(3), 0, 7)
    assert cover.betti() == 1
    # a line: exactly two vertices at each positive integer distance
    by_depth = {}
    for v in cover.vertices:
        by_depth.setdefault(cover.depth(v), []).append(v)
    assert len(by_depth[Fraction(0)]) == 1
    for d in range(1, 8):
        assert len(by_depth[Fraction(d)]) == 2


def test_tree_base_gives_trivial_deck():
    cover = universal_cover(path_graph(4), 0, 10)
    assert cover.betti() == 0
    assert len(cover.vertices) == 4


def test_figure_eight_cover_is_4_regular_tree():
    cover = universal_cover(figure_eight(), "v", 3)
    assert cover.betti() == 2
    counts = {}
    for v in cover.vertices:
        counts[cover.depth(v)] = counts.get(cover.depth(v), 0) + 1
    assert counts[Fraction(0)] == 1
    assert counts[Fraction(1)] == 4
    assert counts[Fraction(2)] == 12
    assert counts[Fraction(3)] == 36


def test_pullback_measure_balls():
    # unit masses on C3 pull back to unit masses on the line
    cover = universal_cover(cycle_graph(3), 0, 10)
    mu = PullbackMeasure(cover, VertexMeasure())
    root = ()
    assert ball_mass(mu, cover.space, root, Fraction(5, 2), closed=False) == 5
    # figure-eight: closed unit ball in the 4-regular tree has mass 5
    cover8 = universal_cover(figure_eight(), "v", 4)
    mu8 = PullbackMeasure(cover8, VertexMeasure())
    assert ball_mass(mu8, cover8.space, (), 1, closed=True) == 5
    # zero base measure pulls back to zero
    zero = PullbackMeasure(cover, VertexMeasure(weights={}))
    assert ball_mass(zero, cover.space, root, 2, closed=True) == 0
    # a negative base weight is refused on the cover as on the base graph,
    # naming the base vertex that carries it
    graph = WeightedGraph(["a", "b"],
                          [("a", "b", 1), ("a", "b", 1), ("a", "a", 1)])
    signed = universal_cover(graph, "a", 4)
    mu_signed = PullbackMeasure(signed,
                                VertexMeasure(weights={"a": -1, "b": 2}))
    with pytest.raises(DomainError, match="negative mass at 'a'"):
        ball_mass(mu_signed, signed.space, (), 2,
                  closed=True)


def test_cover_distances_match_loop_lengths():
    graph = cycle_graph(4)
    cover = universal_cover(graph, 0, 12)
    act = DeckAction(cover)
    root = ()
    rows = act.elements_moving_near(root, root, 12)
    for g, v, d in rows:
        # displacement equals the base length of the reduced loop
        assert d == sum(cover.dart_weight(dart) for dart in g)


def test_deck_action_free_and_proper():
    cover = universal_cover(figure_eight(), "v", 4)
    act = DeckAction(cover)
    root = ()
    rows = act.elements_moving_near(root, root, 3)
    nontrivial = [g for g, _v, d in rows if d == 0 and g != ()]
    assert nontrivial == []
    assert len(rows) == 2 * 3 ** 3 - 1   # free group of rank 2, radius 3


def test_cover_tree_is_zero_hyperbolic():
    cover = universal_cover(cycle_graph(5), 0, 6)
    pts = cover.vertices[:24]
    assert four_point_delta(cover.space, points=pts).delta == 0


def test_cover_window_guard():
    cover = universal_cover(figure_eight(), "v", 3)
    act = DeckAction(cover)
    with pytest.raises(WindowError):
        act.elements_moving_near((), (), 10)
    with pytest.raises(DomainError):
        universal_cover(WeightedGraph([0, 1], []), 0, 3)


def test_deck_classification():
    cover = universal_cover(figure_eight(), "v", 6)
    fam = DeckAction(cover).family
    g1, g2 = cover.generator_words
    assert fam.subgroup_virtually_nilpotent([g1]) is True
    assert fam.subgroup_virtually_nilpotent([g1, g2]) is False
    # the identity and powers of one loop commute with each other
    assert fam.subgroup_virtually_nilpotent(
        [(), g1, fam.multiply(g1, g1), fam.inverse(g1)]) is True
    assert fam.subgroup_virtually_nilpotent([(), g1, (), g2]) is False
    assert fam.is_infinite_order(g1)


def test_deck_quotient_diameter_and_cover_validate():
    # the quotient of the cover by its deck group is the base graph, whose
    # diameter is the largest Dijkstra distance between two vertices
    rng = random.Random(7)
    for _ in range(60):
        graph = _random_multigraph(rng)
        cover = universal_cover(graph, graph.vertices[0], 2)
        assert DeckAction(cover).quotient_diameter() == max(
            graph.vertex_distance(u, v)
            for u in graph.vertices for v in graph.vertices)
    # the cover of a unit triangle is a line: two vertices per depth
    cover = universal_cover(cycle_graph(3), 0, Fraction(7, 2))
    assert DeckAction(cover).quotient_diameter() == 1
    assert cover.space.validate() == {"kind": "cover_tree", "ok": True,
                                      "issues": [], "window": "7/2",
                                      "vertices": 7}


def test_pullback_deck_invariance_sampled():
    cover = universal_cover(figure_eight(), "v", 5)
    mu = PullbackMeasure(cover, VertexMeasure())
    act = DeckAction(cover)
    root = ()
    for g in cover.generator_words:
        moved = act.apply(g, root)
        for r in (1, 2, 3):
            assert (ball_mass(mu, cover.space, moved, r, closed=True)
                    == ball_mass(mu, cover.space, root, r, closed=True))


def _reference_tree(graph, basepoint):
    """(tree_paths, generator_words) from a Dijkstra of its own over the
    dart lists, in dart order with ties popped by point key: the oracle for
    the cover's reading of `WeightedGraph.shortest_path_tree`."""
    import heapq
    from bgkit.covers import _inverse, _reduce
    from bgkit.spaces import point_key
    darts_out = {v: [] for v in graph.vertices}
    for eid, (a, b, w) in enumerate(graph.edges):
        darts_out[a].append(((eid, 1), b, w))
        darts_out[b].append(((eid, 0), a, w))
    for v in darts_out:
        darts_out[v].sort(key=lambda row: row[0])
    dist = {basepoint: Fraction(0)}
    parent_dart = {basepoint: None}
    heap = [(Fraction(0), point_key(basepoint), basepoint)]
    done = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for dart, v, w in darts_out[u]:
            if v in done:
                continue
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent_dart[v] = dart
                heapq.heappush(heap, (nd, point_key(v), v))
    tree = {parent_dart[v][0] for v in graph.vertices
            if parent_dart[v] is not None}
    paths = {}
    for v in graph.vertices:
        path, cur = [], v
        while parent_dart[cur] is not None:
            eid, direction = parent_dart[cur]
            path.append((eid, direction))
            edge = graph.edges[eid]
            cur = edge[0] if direction == 1 else edge[1]
        paths[v] = tuple(reversed(path))
    words = [_reduce(paths[u] + ((eid, 1),) + _inverse(paths[v]))
             for eid, (u, v, _w) in enumerate(graph.edges) if eid not in tree]
    return paths, words


def _random_multigraph(rng):
    """A connected multigraph with loops, parallel and reversed edges and
    tied path lengths, on int or string vertices."""
    n = rng.randint(1, 9)
    names = (list(range(n)) if rng.random() < 0.5
             else [f"v{i}" for i in rng.sample(range(20), n)])
    weights = [1, 1, 2, Fraction(1, 2), Fraction(3, 2)]
    edges = []
    for i in range(1, n):
        u, v = names[rng.randrange(i)], names[i]
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    for _ in range(rng.randint(0, 6)):
        u, v = rng.choice(names), rng.choice(names)
        edges.append((u, v))
        if rng.random() < 0.3:
            edges.append((v, u))
    rng.shuffle(edges)
    return WeightedGraph(names, [(u, v, rng.choice(weights))
                                 for u, v in edges])


def test_cover_tree_matches_its_own_dijkstra():
    rng = random.Random(2024)
    for _ in range(400):
        graph = _random_multigraph(rng)
        basepoint = rng.choice(graph.vertices)
        paths, words = _reference_tree(graph, basepoint)
        cover = universal_cover(graph, basepoint, 1)
        assert cover.tree_paths == paths
        assert cover.generator_words == words
        assert cover.betti() == len(graph.edges) - len(graph.vertices) + 1
        assert all(cover.project(path) == v for v, path in paths.items())


def test_cover_vertex_budget_refuses(monkeypatch):
    import bgkit.covers
    monkeypatch.setattr(bgkit.covers, "COVER_BUDGET", 100)
    with pytest.raises(WindowError, match="materializes over 100 vertices"):
        universal_cover(figure_eight(), "v", 4)
