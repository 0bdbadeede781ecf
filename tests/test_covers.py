from fractions import Fraction

import pytest

from bgkit.covers import DeckAction, graph_betti, universal_cover
from bgkit.exact import DomainError, WindowError
from bgkit.hyperbolicity import four_point_delta
from bgkit.measures import PullbackMeasure, VertexMeasure, ball_mass
from bgkit.spaces import WeightedGraph


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
    root = cover.lift_of_basepoint()
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
        ball_mass(mu_signed, signed.space, signed.lift_of_basepoint(), 2,
                  closed=True)


def test_cover_distances_match_loop_lengths():
    graph = cycle_graph(4)
    cover = universal_cover(graph, 0, 12)
    act = DeckAction(cover)
    root = cover.lift_of_basepoint()
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
    assert fam.is_infinite_order(g1)


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
