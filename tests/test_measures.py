import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from bgkit import curvature, presets, spaces
from bgkit.actions import (GluedLineShiftAction, LatticeTranslationAction,
                           LeftTranslationAction)
from bgkit.exact import DomainError, WindowError, fmt_rational
from bgkit.groups import FreeAbelianFamily, FreeFamily, TrivialFamily
from bgkit.permutations import FinitePermutationFamily, ProductFamily
from bgkit.measures import (CountingOrbitMeasure, DistanceProfile,
                            VertexMeasure, ball_mass, counting_measure,
                            measure_from_spec, sphere_profile)
from bgkit.spaces import CayleySpace, GluedLineSpace
from bgkit.finite_spaces import WeightedGraph


def test_trivial_group_counting():
    act = LeftTranslationAction(TrivialFamily())
    mu = counting_measure(act, ())
    assert ball_mass(mu, act.space, (), 5, closed=True) == 1
    assert ball_mass(mu, act.space, (), 0, closed=False) == 0


def test_free_group_counting_ball():
    act = LeftTranslationAction(FreeFamily(2))
    mu = counting_measure(act, ())
    assert ball_mass(mu, act.space, (), 3, closed=True) == 53
    assert ball_mass(mu, act.space, (), 3, closed=False) == 17
    # invariance: same mass around a translated center
    g = (1, 2, 1)
    assert ball_mass(mu, act.space, g, 3, closed=True) == 53


def test_lattice_counting_ball():
    act = LeftTranslationAction(FreeAbelianFamily(2))
    mu = counting_measure(act, (0, 0))
    assert ball_mass(mu, act.space, (0, 0), 3, closed=False) == 13
    assert ball_mass(mu, act.space, (0, 0), 200, closed=True) == 2 * 200 ** 2 + 2 * 200 + 1


def test_profile_queries_off_the_tick_grid():
    # distances at multiples of 1/2, as ints and Fractions, with repeats, a
    # zero-mass row and int and Fraction masses
    rows = [(0, 1), (Fraction(1, 2), Fraction(2, 3)), (1, 2), (Fraction(1), 1),
            (Fraction(3, 2), 0), (2, Fraction(1, 4)), (Fraction(5, 2), 3),
            (Fraction(5, 2), Fraction(1, 6)), (4, 5)]
    profile = DistanceProfile(rows, 5)
    assert profile.scale == 2
    tally = Counter()
    for d, m in rows:
        tally[Fraction(d)] += m
    ticks = sorted(d for d, m in tally.items() if m)
    assert profile.distances == ticks

    # 1/3 and 1/5 do not divide the scale; radii on both sides of each tick
    radii = {Fraction(1, 3), Fraction(7, 5)}
    for d in ticks:
        for off in (0, Fraction(1, 3), Fraction(1, 5)):
            radii.update(r for r in (d - off, d + off) if 0 <= r <= 5)
    for r in sorted(radii):
        lt, le = profile.mass_lt(r), profile.mass_le(r)
        assert lt == sum(m for d, m in tally.items() if d < r), r
        assert le == sum(m for d, m in tally.items() if d <= r), r
        # reports print a Fraction as "p/q" and an int as a JSON number
        assert type(lt) is Fraction and type(le) is Fraction
    assert all(type(q) is Fraction
               for q in profile.distances + profile.cumulative)
    with pytest.raises(WindowError):
        profile.mass_lt(Fraction(16, 3))


def _ratio_by_masses(profile, big, small, closed):
    """The ratio as Fraction division of two mass queries, or the exception
    the queries raise first."""
    try:
        num = profile.mass_le(big) if closed else profile.mass_lt(big)
        den = profile.mass_lt(small)
    except WindowError as err:
        return type(err), str(err)
    if not den:
        return DomainError, (f"empty ball: the open ball of radius "
                             f"{fmt_rational(Fraction(small))} has zero mass")
    return num / den


def test_ratio_matches_fraction_division():
    rng = random.Random(5)
    for _ in range(40):
        # distances on scales up to 12, masses on mass scales up to 30,
        # zero-mass rows, and no mass at all below the first distance
        rows = [(Fraction(rng.randint(1, 40), rng.choice((1, 2, 3, 4, 6, 12))),
                 Fraction(rng.randint(0, 9), rng.choice((1, 2, 5, 6, 10, 15))))
                for _ in range(rng.randint(0, 12))]
        upto = Fraction(rng.randint(0, 30), rng.choice((1, 2, 3)))
        profile = DistanceProfile(rows, upto)
        radii = [Fraction(0), upto, upto + Fraction(1, 7)]
        radii += [d + off for d, _m in rows for off in (0, Fraction(1, 5))]
        radii += [Fraction(rng.randint(0, 90), rng.choice((1, 5, 7)))
                  for _ in range(6)]
        for big in radii:
            for small in radii:
                for closed in (False, True):
                    want = _ratio_by_masses(profile, big, small, closed)
                    try:
                        got = profile.ratio(big, small, closed=closed)
                    except (WindowError, DomainError) as err:
                        got = type(err), str(err)
                    assert got == want, (rows, upto, big, small, closed)
                    assert type(got) is type(want)


def test_ratio_refusals_come_in_order():
    profile = DistanceProfile([(Fraction(1, 2), Fraction(2, 3)),
                               (Fraction(3, 2), Fraction(1, 6))], 2)
    # big past the window first, then small, then the empty ball
    with pytest.raises(WindowError, match="asked for 3"):
        profile.ratio(3, 5)
    with pytest.raises(WindowError, match="asked for 5"):
        profile.ratio(2, 5)
    with pytest.raises(DomainError, match="open ball of radius 1/2 has zero"):
        profile.ratio(2, Fraction(1, 2))
    assert profile.ratio(2, 1, closed=True) == 5 / Fraction(4)
    assert type(profile.ratio(2, 1)) is Fraction


def test_glued_line_example_masses():
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 30)
    act = GluedLineShiftAction(gl)
    mu = counting_measure(act, gl.tip(0))
    r = Fraction(11, 10)
    assert ball_mass(mu, gl, gl.tip(0), r, closed=False) == 1
    assert ball_mass(mu, gl, gl.tip(0), 2 * r, closed=False) == 23
    # the double ball captures both hairs per eps-step: 2*floor(r0/eps)+3
    assert 2 * 10 + 3 == 23


def test_counting_profile_matches_enumeration():
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 40)
    act = GluedLineShiftAction(gl)
    mu = counting_measure(act, gl.tip(0))
    profile = mu.profile(gl, gl.tip(0), 3)
    rows = act.elements_moving_near(gl.tip(0), gl.tip(0), 3)
    assert profile.mass_le(3) == len(rows)
    assert profile.mass_lt(Fraction(11, 10)) == 1
    assert profile.mass_le(Fraction(11, 10)) == 3


def test_sublattice_counting_center_off_orbit():
    space = CayleySpace(FreeAbelianFamily(2))
    act = LatticeTranslationAction(space, [[5, 0], [0, 5]])
    mu = counting_measure(act, (0, 0))
    # center (2,1): nearest orbit points are (0,0) at 3 and (5,0) at 4
    assert ball_mass(mu, space, (2, 1), Fraction(7, 2), closed=False) == 1
    assert ball_mass(mu, space, (2, 1), 4, closed=True) == 2


def test_vertex_measure_weights_and_errors():
    graph = WeightedGraph([0, 1, 2], [(0, 1, 1), (1, 2, 1)])
    uniform = VertexMeasure()
    assert ball_mass(uniform, graph, 1, 1, closed=True) == 3
    weighted = VertexMeasure(weights={0: Fraction(1, 2), 1: 2})
    assert ball_mass(weighted, graph, 1, 1, closed=True) == Fraction(5, 2)
    with pytest.raises(DomainError):
        ball_mass(uniform, graph, 0, -1)


def test_weights_keys_name_points():
    # JSON object keys are strings: a key that is a point stays as it is,
    # any other key is read as JSON text, and a key naming no point is
    # refused with the space's error
    def weights(space, table):
        spec = {"measure": "vertex_weights", "weights": table}
        return measure_from_spec(spec, space).weights

    ints = WeightedGraph([0, 1, 2], [(0, 1, 1), (1, 2, 1)])
    assert weights(ints, {"0": "2", "2": "1/2"}) == {0: 2, 2: Fraction(1, 2)}
    labels = WeightedGraph(["0", "a"], [("0", "a", 1)])
    assert weights(labels, {"0": "3", '"a"': "1"}) == {"0": 3, "a": 1}
    lattice = CayleySpace(FreeAbelianFamily(2))
    assert weights(lattice, {"[0,0]": "2", "[1, -1]": "1"}) == {(0, 0): 2,
                                                              (1, -1): 1}
    glued = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 4)
    assert weights(glued, {'["tip", 0]': "2"}) == {glued.tip(0): 2}
    for space, key, shown in [(ints, "5", "5"), (ints, "a", "'a'"),
                              (lattice, "[0]", "(0,)"),
                              (glued, '["tip", 9]', "['tip', 9]")]:
        with pytest.raises(DomainError, match=rf"^{re.escape(shown)} is not "
                           rf"a point of this {space.kind} space$"):
            weights(space, {key: "1"})


def test_counting_orbit_basepoint_from_spec():
    # a JSON basepoint is read as a point; without one, the space's default
    # point is used, the trivial group's falsy identity () included
    spec = {"measure": "counting_orbit"}
    lattice = LeftTranslationAction(FreeAbelianFamily(2))
    assert measure_from_spec({**spec, "basepoint": [1, -2]}, lattice.space,
                             action=lattice).basepoint == (1, -2)
    atom = LeftTranslationAction(TrivialFamily())
    assert measure_from_spec(spec, atom.space, action=atom).basepoint == ()
    glued = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 4)
    shift = GluedLineShiftAction(glued)
    assert measure_from_spec(spec, glued, action=shift).basepoint == glued.tip(0)
    assert measure_from_spec({**spec, "basepoint": ["line", "1/5"]}, glued,
                             action=shift).basepoint == ("line", Fraction(1, 5))
    graph = WeightedGraph([0, 1], [(0, 1, 1)])
    with pytest.raises(DomainError, match="needs an explicit basepoint"):
        measure_from_spec(spec, graph, action=shift)


def test_window_guard_on_measure():
    gl = GluedLineSpace(1, 1, 3)
    act = GluedLineShiftAction(gl)
    mu = counting_measure(act, gl.tip(0))
    with pytest.raises(WindowError):
        ball_mass(mu, gl, gl.tip(0), 50, closed=True)


def test_gamma_invariance_sampled():
    act = LeftTranslationAction(FreeFamily(2))
    mu = counting_measure(act, ())
    for g in [(1,), (2, 1), (-1, 2, -1)]:
        center = act.apply(g, ())
        for r in (1, 2, Fraction(5, 2)):
            assert (ball_mass(mu, act.space, center, r, closed=True)
                    == ball_mass(mu, act.space, (), r, closed=True))


# -- analytic profiles of the uniform vertex measure -----------------------------

# (family, a center other than the identity wherever the group has one)
CAYLEY_CASES = [
    (FreeFamily(2), (1, -2, 1)),
    (FreeAbelianFamily(1), (3,)),
    (FreeAbelianFamily(2), (2, -1)),
    (FreeAbelianFamily(3), (1, 0, -2)),
    (TrivialFamily(), ()),
    (FinitePermutationFamily([(1, 2, 0, 3), (1, 0, 2, 3), (0, 1, 3, 2)]),
     (2, 0, 1, 3)),
    (ProductFamily([FreeFamily(1), FreeAbelianFamily(1),
                    FinitePermutationFamily([(1, 0)])]), ((-1,), (2,), (1, 0))),
]
RADII = (0, Fraction(1, 2), 3, Fraction(7, 2))


def _tallied(rows):
    """(distances, cumulative masses) of enumerated rows, by plain counting."""
    tally = Counter(d for _p, d in rows)
    distances = sorted(tally)
    return distances, list(itertools.accumulate(tally[d] for d in distances))


class _Refused(Exception):
    pass


def _refuse(*_args, **_kwargs):
    raise _Refused


@pytest.mark.parametrize("family,center", CAYLEY_CASES,
                         ids=[f.name for f, _c in CAYLEY_CASES])
def test_uniform_cayley_profile_matches_enumeration(family, center,
                                                    monkeypatch):
    space = CayleySpace(family)
    expected = {upto: (_tallied(spaces.enumerate_ball(space, center, upto,
                                                      closed=True)),
                       [(r, closed, len(spaces.enumerate_ball(
                           space, center, r, closed=closed)))
                        for r in RADII if r <= upto
                        for closed in (False, True)])
                for upto in RADII}
    # the analytic path never enumerates; other measures still do
    monkeypatch.setattr(CayleySpace, "ball", _refuse)
    mu = VertexMeasure()
    for upto, (tally, masses) in expected.items():
        profile = mu.profile(space, center, upto)
        assert (profile.distances, profile.cumulative) == tally
        for r, closed, count in masses:
            assert ball_mass(mu, space, center, r, closed=closed) == count
    with pytest.raises(_Refused):
        VertexMeasure(weights={center: 2}).profile(space, center, 1)


@pytest.mark.parametrize("family,center", CAYLEY_CASES,
                         ids=[f.name for f, _c in CAYLEY_CASES])
def test_cayley_ball_matches_sorted_word_distances(family, center):
    # every element within word length 4 of the center, by closing under
    # the generators, then filtered and sorted by (distance, key)
    space = CayleySpace(family)
    gens = [g for _name, g in family.generators()]
    near = {center}
    for _ in range(4):
        near |= {family.multiply(p, g) for p in near for g in gens}
    for r in (0, Fraction(1, 2), 1, 3, Fraction(7, 2), 4):
        for closed in (False, True):
            rows = [(Fraction(family.word_distance(center, p)), p)
                    for p in near]
            want = sorted(((p, d) for d, p in rows
                           if (d <= r if closed else d < r)),
                          key=lambda pd: (pd[1], spaces.point_key(pd[0])))
            got = space.ball(center, r, closed=closed)
            assert got == want, (r, closed)
            assert all(type(d) is Fraction for _p, d in got)


@pytest.mark.parametrize("family", [f for f, _c in CAYLEY_CASES],
                         ids=[f.name for f, _c in CAYLEY_CASES])
def test_sphere_profile_matches_row_profile(family):
    # radius 8 passes the permutation group's diameter, so its sizes end in
    # zeros; step 5 is the sphere step of the 5Z x 5Z translation action
    for radius in (0, 1, 8):
        sizes = family.sphere_sizes(radius)
        for step in (1, 5):
            for upto in (radius * step, Fraction(2 * radius * step + 1, 2)):
                got = sphere_profile(sizes, step, upto)
                rows = DistanceProfile(zip(itertools.count(0, step), sizes),
                                       upto)
                assert vars(got) == vars(rows)
                assert [type(v) for v in vars(got).values()] == [
                    type(v) for v in vars(rows).values()]
                assert all(type(t) is int for t in got.ticks + got.totals)
    if isinstance(family, FinitePermutationFamily):
        assert sizes[-1] == 0


@pytest.mark.parametrize("center,radius", [
    ((1, 2), 13),         # 2 * 3^13 - 1 elements, over the budget
    ((1, -1), 2),         # not a reduced word
    ((1, 2), -1),
], ids=["budget", "point", "negative"])
def test_uniform_profile_refusals_match_enumeration(center, radius):
    space = CayleySpace(FreeFamily(2))
    texts = []
    for mu in (VertexMeasure(), VertexMeasure(weight_fn=lambda _p: 1)):
        with pytest.raises((DomainError, WindowError)) as err:
            mu.profile(space, center, radius)
        texts.append((type(err.value), str(err.value)))
    assert texts[0] == texts[1]
    if radius == 13:
        assert texts[0][1] == ("ball of radius 13 holds 3188645 elements, "
                               "over the enumeration budget 2000000")
        with pytest.raises(WindowError, match="holds 3188645 elements"):
            ball_mass(VertexMeasure(), space, center, 13)


# -- the one-entry profile memo ----------------------------------------------------

PRESETS = ["lattice2", "free2", "atom", "torus5", "line10", "glued-line"]
MEASURE_KINDS = ["counting_orbit", "vertex_uniform"]


def _preset_instance(name, kind):
    return presets.Instance({**presets.spec(name), "measure": kind})


def _profile_fields(profile):
    return (profile.scale, profile.mass_scale, profile.ticks, profile.totals,
            profile.upto)


@pytest.mark.parametrize("kind", MEASURE_KINDS)
@pytest.mark.parametrize("name", PRESETS)
def test_profile_memo_matches_fresh_builds(name, kind):
    inst = _preset_instance(name, kind)
    space, mu = inst.space, inst.measure
    c0 = inst.point(None)
    centers = [c0] + [p for p, _d in spaces.enumerate_ball(space, c0, 1,
                                                           closed=True)
                      if p != c0][:1]
    args = [(c, upto) for c in centers for upto in (2, Fraction(7, 2))]
    calls = [args[i % len(args)] for i in (0, 0, 1, 2, 2, 2, 0, 3, 1, 1, 3, 0)]
    last = last_args = None
    for center, upto in calls:
        got = mu.profile(space, center, upto)
        fresh = _preset_instance(name, kind)
        want = fresh.measure.profile(fresh.space, center, upto)
        assert _profile_fields(got) == _profile_fields(want)
        assert type(got.ticks) is tuple and type(got.totals) is tuple
        # the same arguments return the very profile, and so does a new
        # center with the same upto when the measure is center-free; any
        # other call builds a fresh one in its place
        repeat = last_args is not None and upto == last_args[1] and (
            center == last_args[0] or mu._center_free(space))
        assert (got is last) == repeat
        last, last_args = got, (center, upto)
    # a profile built on another, equal space is not the memo's
    other = _preset_instance(name, kind).space
    if kind == "vertex_uniform":
        assert mu.profile(other, c0, 2) is not mu.profile(space, c0, 2)
    else:
        with pytest.raises(DomainError, match="on a different space"):
            mu.profile(other, c0, 2)


@pytest.mark.parametrize("name,kind", [
    ("free2", "vertex_uniform"), ("glued-line", "counting_orbit"),
    ("glued-line", "vertex_uniform")])
def test_profile_memo_keeps_no_refusal(name, kind):
    inst = _preset_instance(name, kind)
    space, mu, c0 = inst.space, inst.measure, inst.point(None)
    kept = mu.profile(space, c0, 2)
    refusals = []
    for _ in range(3):
        with pytest.raises(WindowError) as err:
            mu.profile(space, c0, 13)
        refusals.append((str(err.value), err.value.required,
                         err.value.available))
        # the refused call replaced nothing
        assert mu.profile(space, c0, 2) is kept
    assert "radius 13 " in refusals[0][0]
    assert refusals == refusals[:1] * 3


def test_profile_memo_checks_a_new_center(monkeypatch):
    # a memo hit at a new center of a center-free measure builds nothing
    # but still runs the ball checks there: a non-point is refused, and
    # the refusal replaces nothing
    space = CayleySpace(FreeFamily(2))
    mu = VertexMeasure()
    kept = mu.profile(space, (), 2)
    monkeypatch.setattr(VertexMeasure, "_build_profile", _refuse)
    assert mu.profile(space, (1, 2), 2) is kept
    for _ in range(2):
        with pytest.raises(DomainError,
                           match=r"\(1, -1\) is not a point of this cayley"):
            mu.profile(space, (1, -1), 2)
        assert mu.profile(space, (-2,), 2) is kept


def test_left_translation_counting_profile_serves_every_center(monkeypatch):
    # left translation is transitive on its own Cayley graph, so the
    # counting measure's profile is the same at every center: one build
    inst = _preset_instance("lattice2", "counting_orbit")
    space, mu = inst.space, inst.measure
    build = CountingOrbitMeasure._build_profile
    builds = []

    def counted(self, space, center, upto):
        builds.append(center)
        return build(self, space, center, upto)

    monkeypatch.setattr(CountingOrbitMeasure, "_build_profile", counted)
    got = [mu.profile(space, c, 12) for c in ((0, 0), (2, -1), (1, 3))]
    assert got[0] is got[1] is got[2]
    assert builds == [(0, 0)]


@pytest.mark.parametrize("name", PRESETS)
def test_round_trip_builds_one_profile(name, monkeypatch):
    # weak scan, weak -> synthetic and its scan, the direct synthetic scan,
    # synthetic -> weak and its scan, and min_exponent: one profile
    inst = _preset_instance(name, "counting_orbit")
    space, action, mu = inst.build()
    x = inst.point(None)
    cls = type(action)
    build = cls.displacement_profile
    builds = []

    def counted(self, base, center, upto):
        builds.append((center, upto))
        return build(self, base, center, upto)

    monkeypatch.setattr(cls, "displacement_profile", counted)
    r_max = Fraction(3, 2) if name == "glued-line" else Fraction(4)
    params = curvature.BGParams(Fraction(1, 2), 2.0, 1.0)
    syn = curvature.SyntheticParams(0.5, 1.25)
    curvature.check_weak_bg(space, mu, x, params, r_max)
    curvature.check_bg_synthetic(
        space, mu, x, curvature.weak_to_synthetic(params), r_max)
    curvature.check_bg_synthetic(space, mu, x, syn, r_max)
    curvature.check_weak_bg(space, mu, x,
                            curvature.synthetic_to_weak(syn), r_max)
    curvature.min_exponent(space, mu, x, params.r0, params.C, r_max)
    assert builds == [(x, 2 * r_max)]


# -- the one refusal gate ----------------------------------------------------------

def _gate_cases():
    """(id, measure, space, a center it accepts, non-points) for every
    measure kind."""
    from bgkit.covers import universal_cover
    from bgkit.measures import PullbackMeasure
    free2 = CayleySpace(FreeFamily(2))
    lattice = CayleySpace(FreeAbelianFamily(2))
    graph = WeightedGraph([0, 1, 2, 3], [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                         (3, 0, Fraction(1, 2))])
    glued = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 20)
    eight = WeightedGraph(["v"], [("v", "v", 1), ("v", "v", 1)])
    cover = universal_cover(eight, "v", 4)
    torus = LatticeTranslationAction(lattice, [[5, 0], [0, 5]])
    return [
        ("uniform-cayley", VertexMeasure(), free2, (1, 2), ["junk", (1, -1)]),
        ("vertex-graph", VertexMeasure(), graph, 1, ["junk", 4]),
        ("weighted-vertex", VertexMeasure(weights={0: 2, 1: Fraction(1, 3)}),
         graph, 0, ["junk", (0, 1)]),
        ("weighted-glued", VertexMeasure(weight_fn=lambda _p: 2), glued,
         glued.tip(0), ["junk", ("hair", 0, 5)]),
        ("pullback", PullbackMeasure(cover, VertexMeasure()), cover.space,
         ((0, 1),), ["junk", ((0, 1), (0, 0))]),
        ("left-translation", counting_measure(LeftTranslationAction(
            free2.family, free2), ()), free2, (1,), ["junk", (1, -1)]),
        ("lattice-mI", counting_measure(torus, (0, 0)), lattice, (0, 0),
         ["junk", (1, 2, 3)]),
        ("lattice-mI-off-base", counting_measure(torus, (0, 0)), lattice,
         (1, 2), ["junk", (1, 2, 3)]),
        ("glued-line-shift", counting_measure(GluedLineShiftAction(glued),
                                              glued.tip(0)),
         glued, glued.tip(0), ["junk", ("line", 7)]),
    ]


def _refusal(call):
    with pytest.raises((DomainError, WindowError)) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("case", _gate_cases(), ids=lambda case: case[0])
def test_every_measure_refuses_what_check_ball_refuses(case):
    # a non-point center, a negative radius and a radius past the window,
    # through ball_mass and Measure.profile, for every measure kind, each
    # after a good profile is kept
    _id, mu, space, good, bad_points = case
    calls = [(c, 2) for c in bad_points] + [(good, -1), (good, Fraction(-1, 3))]
    safe = space.safe_radius(good)
    if safe is not None:
        calls.append((good, safe + Fraction(1, 3)))
    kept = mu.profile(space, good, 2)
    for center, r in calls:
        want = _refusal(lambda: spaces.check_ball(space, center, r))
        assert _refusal(lambda: mu.profile(space, center, r)) == want
        for closed in (False, True):
            assert _refusal(lambda: ball_mass(mu, space, center, r,
                                              closed=closed)) == want
        assert mu.profile(space, good, 2) is kept


def test_counting_measures_refuse_non_points_at_the_gate():
    # the lattice's orbit scan once zipped a 3-vector down to two
    # coordinates, and a string center once counted as a point
    for name in ("lattice2", "torus5"):
        inst = _preset_instance(name, "counting_orbit")
        space, mu = inst.space, inst.measure
        for center in ("junk", (1, 2, 3)):
            with pytest.raises(DomainError, match=(
                    rf"^{re.escape(repr(center))} is not a point of this "
                    r"cayley space$")):
                ball_mass(mu, space, center, 2)


@pytest.mark.parametrize("case", _gate_cases(), ids=lambda case: case[0])
def test_gate_runs_once_per_call_and_never_on_a_memo_hit(case, monkeypatch):
    _id, mu, space, good, _bad = case
    calls = []
    check = spaces.check_ball

    def counted(*args):
        calls.append(args[1:])
        return check(*args)

    monkeypatch.setattr(spaces, "check_ball", counted)
    profile = mu.profile(space, good, 2)
    assert calls == [(good, 2)]
    for _ in range(3):
        assert mu.profile(space, good, 2) is profile
        assert mu.profile(space, good, Fraction(2)) is profile
    assert calls == [(good, 2)]
    # another radius is a new build, through the gate once more
    mu.profile(space, good, 1)
    assert calls == [(good, 2), (good, 1)]
