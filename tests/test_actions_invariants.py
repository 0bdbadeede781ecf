import math
from fractions import Fraction

import pytest

from bgkit import presets, probes
from bgkit.actions import (GluedLineShiftAction, LatticeTranslationAction,
                           LeftTranslationAction, PermutationAction)
from bgkit.bounds import NuOracle, bound_cross_check, evaluate_bound
from bgkit.covers import DeckAction, universal_cover
from bgkit.curvature import BGParams, check_weak_bg
from bgkit.exact import DomainError, WindowError
from bgkit.groups import FreeAbelianFamily, FreeFamily, TrivialFamily
from bgkit.permutations import FinitePermutationFamily, ProductFamily
from bgkit.measures import VertexMeasure
from bgkit.probes import (margulis_estimate, short_generators, sigma_r,
                          strengthened_bg_check, systole, thin_set)
from bgkit.spaces import CayleySpace, GluedLineSpace
from bgkit.finite_spaces import FiniteMetricSpace, WeightedGraph


def torus_action(m):
    space = CayleySpace(FreeAbelianFamily(2))
    matrix = [[m, 0], [0, m]]
    return LatticeTranslationAction(space, matrix)


# -- systole / diastole --------------------------------------------------------


def test_systole_sublattice():
    act = torus_action(5)
    sample = [(i, j) for i in range(3) for j in range(3)]
    rep = systole(act, sample)
    assert all(p.systole == 5 for p in rep.per_point)
    assert rep.diastole == 5 and rep.systole == 5
    assert rep.torsion_free_systole == 5


def test_systole_free_group():
    act = LeftTranslationAction(FreeFamily(2))
    rep = systole(act, [()])
    assert rep.systole == 1
    assert rep.torsion_free_systole == 1


def test_systole_stabilizer_warning():
    fix = FinitePermutationFamily([(1, 0, 2)])
    metric = FiniteMetricSpace([[0, 1, 1], [1, 0, 1], [1, 1, 0]], labels=[0, 1, 2])
    act = PermutationAction(fix, metric, labels=[0, 1, 2])
    rep = systole(act, [2, 0])
    by_point = {p.point: p for p in rep.per_point}
    assert by_point[2].systole == 0 and by_point[2].stabilized
    assert by_point[0].systole == 1
    assert rep.warnings
    # no torsion-free elements at all in a finite family
    assert rep.torsion_free_systole is None


def test_systole_glued_line():
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 40)
    act = GluedLineShiftAction(gl)
    rep = systole(act, [gl.tip(0), gl.base(0)])
    by_point = {p.point: p for p in rep.per_point}
    assert by_point[gl.tip(0)].systole == Fraction(11, 10)
    assert by_point[gl.base(0)].systole == Fraction(1, 10)


def _two_loop_systole(action, x, ceiling):
    """(systole, torsion-free systole, probes) at x from two doubling
    searches, one per systole, each enumerating the orbit afresh: the
    oracle for `probes._point_systole`.  `probes` counts the probes of the
    longer search."""
    family = action.family
    identity = family.identity()
    radius = None if ceiling is None else Fraction(ceiling)
    trivial = all(g == identity for _, g in family.generators())

    def search(keep):
        probe, probes = Fraction(1), 0
        while True:
            probes += 1
            limit = probe if radius is None else min(probe, radius)
            hits = [d for g, d in action.orbit_within(x, limit) if keep(g)]
            if hits:
                return min(hits), probes
            if radius is not None and probe >= radius:
                return None, probes
            if radius is None and trivial:
                return None, probes
            probe *= 2

    sys_val, probes = search(lambda g: g != identity)
    sys_free = None
    if sys_val is not None and any(family.is_infinite_order(g)
                                   for _, g in family.generators()):
        sys_free, more = search(
            lambda g: g != identity and family.is_infinite_order(g))
        probes = max(probes, more)
    return sys_val, sys_free, probes


def _systole_cases():
    def preset(name, sample):
        return name, presets.Instance(presets.spec(name)).build()[1], sample

    gl = presets.Instance(presets.spec("glued-line")).build()[0]
    prod = ProductFamily([FreeAbelianFamily(1),
                          FinitePermutationFamily([(1, 0)])])
    fix = FinitePermutationFamily([(1, 0, 2)])
    metric = FiniteMetricSpace([[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                               labels=[0, 1, 2])
    return [
        preset("lattice2", [(0, 0), (2, -1)]),
        preset("free2", [(), (1,), (2, -1)]),
        preset("atom", [()]),
        preset("torus5", [(0, 0), (1, 3)]),
        preset("line10", [(0,), (4,)]),
        # the edge hair's safe window is 1/2: a probe of 1 is refused there
        preset("glued-line", [gl.tip(0), gl.base(0), gl.tip(44)]),
        ("product", LeftTranslationAction(prod), [prod.identity()]),
        ("stabilizer", PermutationAction(fix, metric, labels=[0, 1, 2]),
         [2, 0]),
        # e2 alone counts as of infinite order, so the torsion-free systole
        # 5 is found two probes after the systole 2
        ("late-free", LatticeTranslationAction(
            CayleySpace(FreeAbelianFamily(2)), [[2, 0], [0, 5]]),
         [(0, 0), (1, 1)]),
    ]


@pytest.mark.parametrize("ceiling", [None, Fraction(1, 2), 3, 100])
@pytest.mark.parametrize("name, act, sample", _systole_cases(),
                         ids=[case[0] for case in _systole_cases()])
def test_point_systole_matches_two_searches(name, act, sample, ceiling,
                                            monkeypatch):
    if name == "late-free":
        monkeypatch.setattr(act.family, "is_infinite_order",
                            lambda g: g[1] != 0)
    want = {}
    for x in sample:
        try:
            want[x] = _two_loop_systole(act, x, ceiling)
        except WindowError as err:
            want[x] = err
    radii = _count_probes(act, monkeypatch)
    for x in sample:
        radii.clear()
        if isinstance(want[x], WindowError):
            with pytest.raises(WindowError) as got:
                probes._point_systole(act, x, ceiling)
            assert str(got.value) == str(want[x])
            continue
        sp = probes._point_systole(act, x, ceiling)
        assert (sp.systole, sp.torsion_free_systole) == want[x][:2]
        assert sp.stabilized == (want[x][0] == 0)
        # one doubling sequence of probes, as long as the longer search
        top = None if ceiling is None else Fraction(ceiling)
        assert radii == [Fraction(2) ** i if top is None
                         else min(Fraction(2) ** i, top)
                         for i in range(want[x][2])]


def _count_probes(act, monkeypatch):
    """The radii of every orbit enumeration `act` makes from now on."""
    radii = []
    enumerate_orbit = act.elements_moving_near

    def counted(base, center, radius):
        radii.append(radius)
        return enumerate_orbit(base, center, radius)

    monkeypatch.setattr(act, "elements_moving_near", counted)
    return radii


def test_systole_calls_one_probe_sequence_per_point(monkeypatch):
    act = presets.Instance(presets.spec("torus5")).build()[1]
    radii = _count_probes(act, monkeypatch)
    rep = systole(act, [(0, 0), (1, 1)])
    assert (rep.systole, rep.torsion_free_systole) == (5, 5)
    # probes 1, 2, 4 and 8 per point, where two searches made 16 calls
    assert radii == [1, 2, 4, 8] * 2


def test_systole_refuses_a_point_nothing_moves():
    act = presets.Instance(presets.spec("atom")).build()[1]
    with pytest.raises(WindowError, match="no nontrivial displacement of"):
        systole(act, [()])
    with pytest.raises(WindowError, match="no nontrivial displacement of"):
        systole(act, [()], ceiling=3)


# -- thin sets -----------------------------------------------------------------


def test_thin_set_line_translation():
    space = CayleySpace(FreeAbelianFamily(1))
    act = LatticeTranslationAction(space, [[3]])
    sample = [(i,) for i in range(-3, 4)]
    adjacency = {(i,): [(i - 1,), (i + 1,)] for i in range(-3, 4)}
    below = thin_set(act, 3, sample, adjacency)
    assert below.verdict == "empty"
    above = thin_set(act, Fraction(7, 2), sample, adjacency)
    assert all(above.membership.values())
    assert above.verdict == "connected"


def test_thin_set_glued_line_pattern():
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 40)
    act = GluedLineShiftAction(gl)
    tips = [gl.tip(k) for k in range(-2, 3)]
    bases = [gl.base(k) for k in range(-2, 3)]
    sample = tips + bases
    adjacency = {}
    for k in range(-2, 3):
        adjacency[gl.tip(k)] = [gl.base(k)]
        adjacency[gl.base(k)] = [gl.tip(k), gl.base(k - 1), gl.base(k + 1)]
    r = Fraction(11, 10) + Fraction(1, 100)
    rep = thin_set(act, r, sample, adjacency)
    assert all(rep.membership[t] for t in tips)
    assert all(rep.membership[b] for b in bases)
    small = thin_set(act, Fraction(11, 10), sample, adjacency)
    assert not any(small.membership[t] for t in tips)    # sys(tip) = 11/10
    assert all(small.membership[b] for b in bases)       # sys(base) = 1/10
    assert small.verdict == "connected"
    # at the edge hair the safe window is 1/2: the systole probe is refused,
    # not read as "nothing moves x", so the point is not called thick
    with pytest.raises(WindowError):
        thin_set(act, 2, [gl.tip(40)], {gl.tip(40): []})


# -- Margulis scans --------------------------------------------------------------


def test_margulis_abelian_hits_ceiling():
    act = LeftTranslationAction(FreeAbelianFamily(2))
    pts = margulis_estimate(act, [(0, 0), (2, 1)], ceiling=6)
    assert all(p.estimate == 6 and p.hit_ceiling for p in pts)


def test_margulis_free_group_flips_at_one():
    act = LeftTranslationAction(FreeFamily(2))
    pts = margulis_estimate(act, [()], ceiling=5)
    assert pts[0].estimate == 1
    assert not pts[0].attained


def test_margulis_product_componentwise():
    prod = ProductFamily([FreeAbelianFamily(1), FreeFamily(2)])
    act = LeftTranslationAction(prod)
    pts = margulis_estimate(act, [prod.identity()], ceiling=4)
    assert pts[0].estimate == 1
    assert pts[0].provenance == "family rule"


def _sigma_r_estimate(action, x, ceiling):
    """(estimate, attained, hit_ceiling, provenance) at x from one `sigma_r`
    enumeration per radius of the displacement spectrum."""
    ceiling = Fraction(ceiling)
    for rad in sorted({d for _g, d in action.orbit_within(x, ceiling)}):
        verdict = sigma_r(action, x, rad).virtually_nilpotent
        if verdict is None:
            return ceiling, False, True, "unknown"
        if not verdict:
            return rad, False, False, "family rule"
    return ceiling, True, True, "family rule"


def _margulis_cases():
    def preset(name, sample, ceiling):
        inst = presets.Instance(presets.spec(name))
        return name, inst.build()[1], sample, ceiling

    prod = ProductFamily([FreeAbelianFamily(1), FreeFamily(2)])
    eight = WeightedGraph(["v"], [("v", "v", 1), ("v", "v", 1)])
    loop = WeightedGraph([0, 1, 2], [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    return [
        preset("free2", [(), (1,), (2, -1)], 4),
        preset("lattice2", [(0, 0), (2, -1)], 5),
        preset("torus5", [(0, 0), (1, 3)], 11),
        ("product", LeftTranslationAction(prod),
         [prod.identity(), ((1,), (2,))], 3),
        ("deck-eight", DeckAction(universal_cover(eight, "v", 5)), [()], 4),
        ("deck-loop", DeckAction(universal_cover(loop, 0, 12)), [()], 10),
    ]


@pytest.mark.parametrize("late", ["rule", None, False],
                         ids=["rule", "undecided", "flip"])
@pytest.mark.parametrize("name, act, sample, ceiling", _margulis_cases(),
                         ids=[case[0] for case in _margulis_cases()])
def test_margulis_matches_per_radius_sigma_r(name, act, sample, ceiling,
                                             late, monkeypatch):
    if late != "rule":
        # from five nontrivial elements on, the family answers `late`, so
        # the verdict turns at a radius past the first
        classify = type(act.family).subgroup_virtually_nilpotent
        monkeypatch.setattr(
            type(act.family), "subgroup_virtually_nilpotent",
            lambda self, gens: (late if len(gens) >= 5
                                else classify(self, gens)))
    want = [_sigma_r_estimate(act, x, ceiling) for x in sample]
    calls = []
    enumerate_orbit = act.elements_moving_near

    def counted(base, center, radius):
        calls.append(center)
        return enumerate_orbit(base, center, radius)

    monkeypatch.setattr(act, "elements_moving_near", counted)
    got = margulis_estimate(act, sample, ceiling)
    assert [(p.estimate, p.attained, p.hit_ceiling, p.provenance)
            for p in got] == want
    assert [p.point for p in got] == sample
    # one enumeration per point, to the ceiling
    assert calls == sample


# -- short generating families ----------------------------------------------------


def test_short_generators_lattice():
    act = LeftTranslationAction(FreeAbelianFamily(2))
    res = short_generators(act, (0, 0), 2)
    assert res.reach_ok and res.separation_ok
    assert res.codiameter == 0
    # the eight norm-2 lattice vectors generate the even sublattice: index 2
    assert len(res.elements) == 8
    assert all(sum(map(abs, g)) == 2 for g in res.elements)
    assert (res.index_verdict, res.index) == ("finite", 2)


def test_short_generators_trivial():
    act = LeftTranslationAction(TrivialFamily())
    res = short_generators(act, (), 3)
    assert res.elements == []
    assert res.index == 1


def test_short_generators_torus():
    act = torus_action(5)
    res = short_generators(act, (0, 0), 5)
    assert res.reach_ok and res.separation_ok
    assert res.codiameter == 4
    # the unit vectors are among the elements: they generate all of Z^2
    assert {(1, 0), (0, 1)} <= set(res.elements)
    assert (res.index_verdict, res.index) == ("finite", 1)


def test_short_generators_general_lattice_refused():
    # only the lattices m*I have an exact quotient diameter, so the search
    # radius 2D + R is unknown on any other
    act = LatticeTranslationAction(CayleySpace(FreeAbelianFamily(2)),
                                   [[2, 1], [0, 3]])
    with pytest.raises(DomainError, match=r"lattice matrices m\*I"):
        short_generators(act, (0, 0), 2)


@pytest.mark.parametrize("R", [0, -3, Fraction(-1, 2)])
def test_short_generators_refuse_a_nonpositive_separation(R, monkeypatch):
    # R-separation means nothing for R <= 0: refused before any orbit scan
    act = LeftTranslationAction(FreeAbelianFamily(2))

    def scan(*_args):
        raise AssertionError("orbit scanned")

    monkeypatch.setattr(act, "elements_moving_near", scan)
    with pytest.raises(DomainError,
                       match=r"^short generators need a separation R > 0$"):
        short_generators(act, (0, 0), R)


def test_short_generators_free_group_membership():
    act = LeftTranslationAction(FreeFamily(2))
    res = short_generators(act, (), 1)
    # radius 1 orbit gives all four letters: the whole group, index 1
    assert res.index == 1


# -- bound evaluators ---------------------------------------------------------------


def test_evaluate_bound_values():
    assert evaluate_bound("generators", {"N": 2, "K": 0, "D": 5}) == 14641
    assert evaluate_bound("betti_simply_connected", {"N": 2, "K": 0, "D": 5}) == 14641
    assert evaluate_bound("betti_hyperbolic", {"K": 0, "D": 3, "delta": 1}) == 729
    got = evaluate_bound("systole_lower", {"D": 1, "C": 2, "K": 0, "r0": 1})
    assert math.isclose(got, 1 / 14, rel_tol=1e-12)
    got = evaluate_bound("doubling_to_bg", {"C0": 2, "r0": 1, "r": 1})
    assert math.isclose(got, 2 ** 9.5, rel_tol=1e-12)


def test_evaluate_bound_nu_kinds():
    nu = NuOracle([[10, 3], [1e6, 7], [1e30, 20]])
    got = evaluate_bound("margulis_scale", {"C": 1.5, "K": 0.0, "r0": 1}, nu=nu)
    assert got == 1.5    # nu(1.5^3 + 1) = nu(4.375) = 3, halved
    got = evaluate_bound("margulis_scale", {"N": 1}, nu=nu)
    assert got == 10.0   # nu(300^3) = 20, halved
    val = evaluate_bound("systole_busemann",
                         {"D": 1, "C": 2, "K": 0, "r0": 1}, nu=nu)
    assert val > 0
    with pytest.raises(DomainError):
        evaluate_bound("margulis_scale", {"C": 2, "K": 0, "r0": 1})
    # eps1 = D / nu(C^3 e^{15 K D} + 1) = 1 / nu(9) = 1/3, and C = 2 makes
    # the exponent log C / log 2 one: (D / C) / (1 + 3 D / eps1) = 1/20
    eps1 = {"D": 1, "C": 2, "K": 0}
    assert math.isclose(evaluate_bound("systole_lower_eps1", eps1, nu=nu),
                        1 / 20, rel_tol=1e-12)
    with pytest.raises(DomainError, match="^nu oracle required"):
        evaluate_bound("systole_lower_eps1", eps1)
    with pytest.raises(DomainError):
        NuOracle([[10, 5], [100, 3]])   # not monotone


def test_bound_cross_check_directions():
    rep = bound_cross_check("generators", 13, {"N": 2, "K": 0, "D": 5})
    assert rep.holds and rep.direction == "measured<=bound"
    rep = bound_cross_check("systole_lower", 5,
                            {"D": 4, "C": 5, "K": 0, "r0": 5})
    assert rep.holds and rep.direction == "measured>=bound"
    rep = bound_cross_check("generators", 1e9, {"N": 1, "K": 0, "D": 0})
    assert not rep.holds


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bounds_refuse_non_finite_values(bad):
    with pytest.raises(DomainError,
                       match="bound 'generators' needs finite parameters"):
        evaluate_bound("generators", {"N": 2, "K": bad, "D": 5})
    with pytest.raises(DomainError, match="measured value must be finite"):
        bound_cross_check("generators", bad, {"N": 2, "K": 0, "D": 5})


@pytest.mark.parametrize("kind,params", [
    ("generators", {"N": 300, "K": 0, "D": 5}),            # 121.0 ** N
    ("doubling_to_bg", {"C0": 11, "r0": 0.02, "r": 10}),   # math.exp
    # no call raises, the product rounds to infinity
    ("generator_count", {"C": 1e300, "D": 0.25, "K": 0, "eps0": 1}),
])
def test_bounds_refuse_a_value_past_the_double_range(kind, params):
    message = rf"^bound '{kind}' overflows double precision$"
    with pytest.raises(DomainError, match=message):
        evaluate_bound(kind, params)
    with pytest.raises(DomainError, match=message):
        bound_cross_check(kind, 1, params)


@pytest.mark.parametrize("kind,params", [
    # a negative base under a fractional power: Python returns a complex
    ("systole_lower", {"D": -10, "C": 3, "K": 0, "r0": 1}),
    ("systole_busemann", {"D": -0.5, "C": 3, "K": 0, "r0": 1}),
    # math.log of a negative factor
    ("generator_count", {"C": -2, "D": 1, "K": 0, "eps0": 1}),
    # division by a zero scale
    ("systole_lower", {"D": 1, "C": 3, "K": 0, "r0": 0}),
    ("generator_count", {"C": 2, "D": 1, "K": 0, "eps0": 0}),
])
def test_bounds_refuse_parameters_outside_the_formula_domain(kind, params):
    nu = NuOracle([[1e300, 2]])
    message = rf"^bound '{kind}' is undefined at these parameters$"
    with pytest.raises(DomainError, match=message):
        evaluate_bound(kind, params, nu=nu)
    with pytest.raises(DomainError, match=message):
        bound_cross_check(kind, 1, params, nu=nu)


# -- strengthened bounds -------------------------------------------------------------


def test_strengthened_bg_on_torus_setup():
    space = CayleySpace(FreeAbelianFamily(2))
    act5 = torus_action(5)
    mu = VertexMeasure()     # the (5Z)^2-invariant full-vertex measure
    cert = check_weak_bg(space, mu, (0, 0), BGParams(1, 5.0 + 1e-6, 0.0), 16)
    assert cert.verified
    rows = strengthened_bg_check(act5, (0, 0), cert, D=4,
                                 pairs=[(2, 6), (1, 6)])
    assert all(row.holds for row in rows if row.holds is not None)
    kinds = {row.formula for row in rows}
    assert {"open-ratio(i)", "closed-ratio(ii)", "packing(iii)"} <= kinds
    pack_row = next(r for r in rows if r.formula == "packing(iii)")
    assert pack_row.r == 1 and pack_row.R == 6


def test_generator_count_formula():
    got = evaluate_bound("generator_count",
                         {"C": 2, "D": 1, "K": 0, "eps0": 1})
    # C (1 + 4D/eps)^(lnC/ln2) e^{K(2D + eps/2)} = 2 * 5^1 * 1
    assert math.isclose(got, 10.0, rel_tol=1e-12)


def test_torsion_free_systole_dominates():
    acts = [torus_action(4), LeftTranslationAction(FreeFamily(2))]
    samples = [[(0, 0), (1, 1)], [(), (1,)]]
    for act, sample in zip(acts, samples):
        rep = systole(act, sample)
        for p in rep.per_point:
            assert p.torsion_free_systole >= p.systole


def test_diastole_consistency_with_nu():
    nu = NuOracle([[1e3, 4], [1e9, 8]])
    rep = systole(torus_action(5), [(0, 0), (2, 1)])
    assert rep.torsion_free_diastole == 5
    # r0 / N0 = 1 / (nu(5^3 e^{1.5} + 1) / 2) = 1/2 <= the diastole 5
    n0 = evaluate_bound("margulis_scale", {"C": 5.0, "K": 0.1, "r0": 1}, nu=nu)
    assert 1 / n0 == 0.5
    # N0 = nu(C^3 e^{15 K r0} + 1) / 2, to the bit
    nu = NuOracle([[10, 2], [1e3, 4], [1e9, 8], [1e300, 16]])
    for r0, C, K in [(1, 5.0, 0.1), (Fraction(3, 7), 2.5, 0.0),
                     (Fraction(1, 3), 9.0, 0.7)]:
        n0 = 0.5 * nu(C ** 3 * math.exp(15.0 * K * float(r0)) + 1.0)
        assert evaluate_bound("margulis_scale",
                              {"C": C, "K": K, "r0": r0}, nu=nu) == n0


def test_weak_certificate_monotone_in_parameters():
    import random as _random
    from bgkit.presets import free_instance, lattice_instance
    rng = _random.Random(5)
    for space, _a, mu in (lattice_instance(), free_instance()):
        center = space.identity()
        for _ in range(12):
            r0 = Fraction(rng.randint(50, 200), 100)
            C = 1.5 + 8 * rng.random()
            K = 0.3 + 1.5 * rng.random()
            base = check_weak_bg(space, mu, center, BGParams(r0, C, K), 8)
            if base.status != "verified":
                continue
            bigger = check_weak_bg(space, mu, center,
                                   BGParams(r0, C * 1.7, K + 0.4), 8)
            assert bigger.status == "verified"


def test_thin_set_ceiling_treats_unmoved_points_as_thick():
    space = CayleySpace(FreeAbelianFamily(1))
    act = LatticeTranslationAction(space, [[10]])
    sample = [(0,), (1,)]
    adjacency = {(0,): [(1,)], (1,): [(0,)]}
    rep = thin_set(act, 2, sample, adjacency, ceiling=4)
    assert rep.verdict == "empty"
    assert not any(rep.membership.values())
