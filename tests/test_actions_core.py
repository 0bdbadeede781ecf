from collections import Counter
from fractions import Fraction

import pytest

from bgkit import actions, covers, spaces
from bgkit.actions import (GluedLineShiftAction, LatticeTranslationAction,
                           LeftTranslationAction, PermutationAction,
                           action_from_spec)
from bgkit.exact import DomainError, WindowError
from bgkit.groups import (FinitePermutationFamily, FreeAbelianFamily,
                          FreeFamily, ProductFamily, TrivialFamily)
from bgkit.probes import sigma_r
from bgkit.spaces import (CayleySpace, FiniteMetricSpace, GluedLineSpace,
                          WeightedGraph)


def lattice_action(k=2):
    return LeftTranslationAction(FreeAbelianFamily(k))


def free_action(k=2):
    return LeftTranslationAction(FreeFamily(k))


def test_trivial_orbit():
    act = LeftTranslationAction(TrivialFamily())
    assert act.orbit_within((), 5) == [((), Fraction(0))]


def test_lattice_orbit_counts():
    act = lattice_action()
    rows = act.orbit_within((0, 0), 1)
    assert len(rows) == 5
    assert {g for g, _ in rows} == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(act.orbit_within((3, -2), 2)) == 13


def test_free_orbit_counts():
    act = free_action()
    assert len(act.orbit_within((), 2)) == 17
    # orbit counts are center-independent for left translation
    assert len(act.orbit_within((1, 2), 2)) == 17


def _counted_profile(act, base, center, upto):
    """Slow oracle: distinct displacements with cumulative orbit counts."""
    tally = Counter(d for _g, _p, d in
                    act.elements_moving_near(base, center, upto))
    dists = sorted(tally)
    return dists, [sum(tally[e] for e in dists if e <= d) for d in dists]


def test_displacement_profile_matches_enumeration():
    act = lattice_action()
    profile = act.displacement_profile((0, 0), (0, 0), 6)
    assert profile.distances == [Fraction(i) for i in range(7)]
    assert profile.cumulative[-1] == 2 * 36 + 12 + 1
    # off-orbit-center profile falls back to enumeration and stays exact
    profile2 = act.displacement_profile((0, 0), (2, 1), 4)
    rows = act.elements_moving_near((0, 0), (2, 1), 4)
    assert profile2.cumulative[-1] == len(rows)
    # every closed-form profile against the counted orbit
    torus5 = CayleySpace(FreeAbelianFamily(2))
    line10 = CayleySpace(FreeAbelianFamily(1))
    cases = [(free_action(), [(), (1, -2, 1)]),
             (lattice_action(), [(0, 0), (3, -2)]),
             (LeftTranslationAction(TrivialFamily()), [()]),
             (LatticeTranslationAction(torus5, [[5, 0], [0, 5]]), [(0, 0)]),
             (LatticeTranslationAction(line10, [[10]]), [(0,)])]
    for act, centers in cases:
        base = act.space.identity()
        for center in centers:
            for upto in (0, Fraction(1, 2), 3, Fraction(7, 2), 6):
                profile = act.displacement_profile(base, center, upto)
                dists, cum = _counted_profile(act, base, center, upto)
                assert profile.distances == dists
                assert profile.cumulative == cum
                assert all(isinstance(q, Fraction) for q in
                           profile.distances + profile.cumulative)


def test_sublattice_action():
    space = CayleySpace(FreeAbelianFamily(2))
    act = LatticeTranslationAction(space, [[5, 0], [0, 5]])
    assert len(act.orbit_within((0, 0), 9)) == 5
    rows = act.orbit_within((0, 0), 10)
    assert len(rows) == 13
    assert act.quotient_diameter() == 4
    assert act.apply((1, -1), (2, 2)) == (7, -3)
    profile = act.displacement_profile((0, 0), (0, 0), 10)
    assert profile.distances == [0, 5, 10]
    assert profile.cumulative == [1, 5, 13]


def test_sublattice_general_matrix():
    space = CayleySpace(FreeAbelianFamily(2))
    act = LatticeTranslationAction(space, [[1, 1], [1, -1]])
    rows = act.orbit_within((0, 0), 2)
    # even sublattice: e plus the eight lattice points of norm 2
    assert len(rows) == 9
    with pytest.raises(DomainError):
        LatticeTranslationAction(space, [[1, 1], [1, 1]])
    # singular with kernel vector (3, -2), and non-square: both refused
    # when the action is built, not at the first query
    with pytest.raises(DomainError, match="injective"):
        LatticeTranslationAction(space, [[2, 2], [3, 3]])
    with pytest.raises(DomainError, match="non-square"):
        LatticeTranslationAction(space, [[1, 0]])


def test_lattice_orbit_box_refuses_past_the_enumeration_budget(monkeypatch):
    # the box scan of a general matrix counts against the one enumeration
    # budget of the package; the radius-2 orbit above has 9 rows
    act = LatticeTranslationAction(CayleySpace(FreeAbelianFamily(2)),
                                   [[1, 1], [1, -1]])
    monkeypatch.setattr(spaces, "ENUMERATION_BUDGET", 9)
    assert len(act.orbit_within((0, 0), 2)) == 9
    monkeypatch.setattr(spaces, "ENUMERATION_BUDGET", 8)
    with pytest.raises(WindowError, match="^orbit budget exceeded$") as err:
        act.orbit_within((0, 0), 2)
    assert (err.value.required, err.value.available) == (9, 8)


def test_glued_line_shift():
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 30)
    act = GluedLineShiftAction(gl)
    assert act.apply((3,), gl.tip(0)) == gl.tip(3)
    # one eps-cell plus its hair: (eps + 2 hair) / 2
    assert act.quotient_diameter() == Fraction(11, 20)
    rows = act.orbit_within(gl.tip(0), Fraction(11, 10))
    assert [(g, d) for g, d in rows if g == (0,)] == [((0,), Fraction(0))]
    assert len(rows) == 3   # identity and the two adjacent hairs at 11/10
    # orbit scans refuse radii past the safe window instead of truncating,
    # and are exhaustive up to it: hairs |g| <= 39 at 49/10
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 44)
    act = GluedLineShiftAction(gl)
    assert gl.safe_radius(gl.tip(0)) == Fraction(49, 10)
    with pytest.raises(WindowError):
        act.orbit_within(gl.tip(0), 10)
    rows = act.orbit_within(gl.tip(0), Fraction(49, 10))
    assert sorted(g[0] for g, _d in rows) == list(range(-39, 40))
    sigma = sigma_r(act, gl.tip(0), Fraction(11, 10))
    assert sigma.virtually_nilpotent is True


def test_permutation_action_and_stabilizer():
    # rotation group of the 4-cycle acting on its vertex metric
    rot = FinitePermutationFamily([(1, 2, 3, 0)])
    cycle = WeightedGraph([0, 1, 2, 3], [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    act = PermutationAction(rot, cycle, labels=[0, 1, 2, 3])
    # every generator preserves every distance of the 4-cycle
    for g in [g for _, g in rot.generators()]:
        for a in range(4):
            for b in range(4):
                assert cycle.distance(act.apply(g, a), act.apply(g, b)) == \
                    cycle.distance(a, b)
    rows = act.orbit_within(0, 2)
    assert len(rows) == 4
    assert act.quotient_diameter() == 0
    # a transposition fixing point 2: stabilizer shows up as displacement 0
    fix = FinitePermutationFamily([(1, 0, 2)])
    metric = FiniteMetricSpace([[0, 1, 1], [1, 0, 1], [1, 1, 0]], labels=[0, 1, 2])
    act2 = PermutationAction(fix, metric, labels=[0, 1, 2])
    rows2 = act2.orbit_within(2, 0)
    assert any(g != (0, 1, 2) and d == 0 for g, d in rows2)


def test_sigma_r_monotone_and_classification():
    act = free_action()
    e = ()
    small = sigma_r(act, e, Fraction(1, 2))
    assert small.elements == [()]
    assert small.virtually_nilpotent is True
    full = sigma_r(act, e, 1)
    assert len(full.elements) == 5
    assert full.virtually_nilpotent is False
    assert set(small.elements) <= set(full.elements)


def test_product_diagonal_action():
    prod = ProductFamily([FreeAbelianFamily(1), FreeFamily(2)])
    act = LeftTranslationAction(prod)
    e = prod.identity()
    rows = act.orbit_within(e, 1)
    assert len(rows) == 7    # identity, +-1 in Z, four letters in F2
    sig = sigma_r(act, e, 1)
    assert sig.virtually_nilpotent is False


def test_action_from_spec():
    space = CayleySpace(FreeAbelianFamily(2))
    act = action_from_spec({"action": "lattice_translation",
                            "matrix": [[5, 0], [0, 5]]}, space)
    assert isinstance(act, LatticeTranslationAction)
    act2 = action_from_spec({"action": "left_translation",
                             "group": {"family": "free", "params": 2}},
                            CayleySpace(FreeFamily(2)))
    assert isinstance(act2, LeftTranslationAction)
    with pytest.raises(DomainError, match=r"free_abelian\(2\) is not the "
                       r"group free\(2\)"):
        action_from_spec({"action": "left_translation",
                          "group": {"family": "free_abelian", "params": 2}},
                         CayleySpace(FreeFamily(2)))
    # same degree, other generators: another group
    with pytest.raises(DomainError, match=r"acts on \(other generators\)$"):
        action_from_spec({"action": "left_translation",
                          "group": {"family": "finite_permutation",
                                    "params": [[1, 0, 2]]}},
                         CayleySpace(FinitePermutationFamily([[0, 2, 1]])))
    # on any other space it is refused, before its group is compared
    free2 = {"action": "left_translation",
             "group": {"family": "free", "params": 2}}
    for other in (WeightedGraph([0, 1], [(0, 1, 1)]),
                  FiniteMetricSpace([[0, 1], [1, 0]]),
                  GluedLineSpace(1, 1, 3)):
        with pytest.raises(DomainError, match=(
                "^left_translation acts on a Cayley space, "
                f"not on a {other.kind} space$")):
            action_from_spec(free2, other)


def test_window_check_covers_every_rule():
    # the one gate lives on GroupAction; no rule can bypass it
    for module in (actions, covers):
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, actions.GroupAction)
                    and obj is not actions.GroupAction):
                assert "elements_moving_near" not in obj.__dict__, obj


def _orbit_gate_cases():
    """(id, action, a base and a center it accepts, non-points) for every
    action kind."""
    free2 = CayleySpace(FreeFamily(2))
    lattice = CayleySpace(FreeAbelianFamily(2))
    glued = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 20)
    cycle = WeightedGraph([0, 1, 2, 3], [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                         (3, 0, 1)])
    cover = covers.universal_cover(
        WeightedGraph(["v"], [("v", "v", 1), ("v", "v", 1)]), "v", 4)
    torus = LatticeTranslationAction(lattice, [[5, 0], [0, 5]])
    return [
        ("left-translation", LeftTranslationAction(free2.family, free2),
         (), (1,), [(9,), "junk", (1, -1)]),
        ("lattice-mI", torus, (0, 0), (0, 0), ["junk", (1, 2, 3)]),
        ("lattice-mI-off-base", torus, (0, 0), (1, 2), ["junk", (1, 2, 3)]),
        ("lattice-general",
         LatticeTranslationAction(lattice, [[2, 1], [0, 3]]), (0, 0), (1, 1),
         ["junk", (1, 2, 3)]),
        ("glued-line-shift", GluedLineShiftAction(glued), glued.tip(0),
         glued.tip(1), ["x", ("line", 7)]),
        ("permutation",
         PermutationAction(FinitePermutationFamily([(1, 2, 3, 0)]), cycle,
                           labels=[0, 1, 2, 3]), 0, 1, ["junk", 4]),
        ("deck", covers.DeckAction(cover), (), ((0, 1),),
         ["junk", ((0, 1), (0, 0))]),
    ]


def _refusal(call):
    with pytest.raises((DomainError, WindowError)) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("case", _orbit_gate_cases(), ids=lambda c: c[0])
def test_every_action_refuses_what_check_ball_refuses(case):
    # a non-point center or base, a negative radius and a radius past the
    # window, through both orbit scans: each refusal is the gate's own
    _id, act, base, center, bad_points = case
    space = act.space
    for bad in bad_points:
        want = _refusal(lambda: space.check_point(bad))
        assert want == _refusal(lambda: spaces.check_ball(space, bad, 2))
        assert _refusal(lambda: act.elements_moving_near(base, bad, 2)) == want
        assert _refusal(lambda: act.elements_moving_near(bad, center, 2)) == want
        assert _refusal(lambda: act.orbit_within(bad, 2)) == want
    radii = [-1, Fraction(-1, 3)]
    for x in (base, center):
        safe = space.safe_radius(x)
        if safe is not None:
            radii.append(safe + Fraction(1, 3))
        for r in radii:
            want = _refusal(lambda: spaces.check_ball(space, x, r))
            assert _refusal(lambda: act.elements_moving_near(base, x, r)) == want
            assert _refusal(lambda: act.orbit_within(x, r)) == want


@pytest.mark.parametrize("case", _orbit_gate_cases(), ids=lambda c: c[0])
def test_each_orbit_scan_passes_the_gate_once(case, monkeypatch):
    _id, act, base, center, _bad = case
    calls = []
    check = spaces.check_ball

    def counted(*args):
        calls.append(args[1:])
        return check(*args)

    monkeypatch.setattr(spaces, "check_ball", counted)
    rows = act.elements_moving_near(base, center, 2)
    assert calls == [(center, 2)]
    assert rows == act._moving_near(base, center, Fraction(2))
    act.orbit_within(center, 1)
    assert calls == [(center, 2), (center, 1)]
