"""Concentric pair checks: one profile per center, one record, one margin rule.

`check_classic_bound`, `strengthened_bg_check` and `cocompact_bg_check`
read every ratio from one `DistanceProfile` per (measure, center) and
decide every pair through `exact.verdict`; these tests hold them to raw
ball enumerations, to the band edges and to their profile-build counts.
"""

import ast
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from test_packing import oracle_pack

import bgkit
from bgkit import measures, presets
from bgkit.bounds import bound_cross_check
from bgkit.cli import run
from bgkit.curvature import (BGParams, PairCheck, SyntheticParams,
                             check_bg_synthetic, check_classic_bound,
                             check_weak_bg)
from bgkit.exact import (DomainError, INCONCLUSIVE, MARGIN, VERIFIED,
                         VIOLATED, band, verdict)
from bgkit.measures import CountingOrbitMeasure, VertexMeasure
from bgkit.probes import cocompact_bg_check, strengthened_bg_check
from bgkit.spaces import enumerate_ball

# formula label -> whether its numerator ball is closed (denominators are
# always open); packing(iii) compares a packing count, not a ratio
CLOSED_NUMERATOR = {"classic": False, "open-ratio(i)": False,
                    "closed-ratio(ii)": True, "invariant(i)": True,
                    "counting-doubling(ii)": True, "counting-tail(ii)": True}


def _tally(measure, space, x, top):
    """Mass per distance within `top` of x, from raw enumeration."""
    if isinstance(measure, CountingOrbitMeasure):
        rows = [(d, 1) for _g, _p, d in measure.action.elements_moving_near(
            measure.basepoint, x, top)]
    else:
        rows = [(d, measure.mass(p))
                for p, d in enumerate_ball(space, x, top, closed=True)]
    tally = Counter()
    for d, m in rows:
        tally[d] += m
    return tally


def _oracle_ratio(tally, big, small, closed):
    num = sum(m for d, m in tally.items() if d < big or (closed and d == big))
    den = sum(m for d, m in tally.items() if d < small)
    return Fraction(num) / den


def _free2():
    space, act, _mu = presets.free_instance()
    return space, act, (), VertexMeasure(), BGParams(1, 81.0, 1.2), 5


def _torus5():
    space, act, _mu = presets.torus_instance(5)
    weighted = VertexMeasure(weight_fn=lambda p: 1 + p[0] % 3)
    return space, act, (1, 2), weighted, BGParams(1, 50.0, 1.0), 6


def _glued_line():
    space, act, mu = presets.glued_line_instance("1", "1/2")
    return space, act, space.tip(0), mu, BGParams(1, 1000.0, 1.0), 3


@pytest.mark.parametrize("setup", [_free2, _torus5, _glued_line])
def test_pair_check_lhs_against_enumeration(setup):
    space, act, x, mu, params, r_max = setup()
    cert = check_weak_bg(space, mu, x, params, r_max)
    assert cert.status == VERIFIED
    counting = CountingOrbitMeasure(act, x)
    runs = [
        (mu, check_classic_bound(space, mu, x, params, cert,
                                 [(1, 2), (Fraction(3, 2), 3)])),
        (counting, strengthened_bg_check(act, x, cert, D=1,
                                         pairs=[(1, 2), (2, 3), (0, 1)])),
    ]
    rows = cocompact_bg_check(act, x, delta=0, D=0, K=1,
                              pairs=[(1, 2), (Fraction(3, 2), 3)], measure=mu)
    runs.append((mu, [row for row in rows if row.formula == "invariant(i)"]))
    runs.append((counting, [row for row in rows
                            if row.formula != "invariant(i)"]))
    seen = set()
    for measure, checks in runs:
        top = max(row.R for row in checks if row.lhs is not None)
        tally = _tally(measure, space, x, top)
        for row in checks:
            assert type(row) is PairCheck
            if row.formula == "-":
                assert row.holds is None and row.note.startswith("skipped")
                continue
            seen.add(row.formula)
            if row.formula == "packing(iii)":
                assert row.lhs == oracle_pack(space, x, row.r, row.R)
            else:
                assert row.lhs == _oracle_ratio(
                    tally, row.R, row.r, CLOSED_NUMERATOR[row.formula]), row
    assert seen == set(CLOSED_NUMERATOR) | {"packing(iii)"}


# -- empty balls -----------------------------------------------------------


@pytest.mark.parametrize("r", [0, -1])
def test_classic_bound_empty_ball(r):
    space, _act, mu = presets.lattice_instance()
    params = BGParams(1, 8.0, 1.0)
    cert = check_weak_bg(space, mu, (0, 0), params, 16)
    with pytest.raises(DomainError, match=f"radius {r} has zero mass"):
        check_classic_bound(space, mu, (0, 0), params, cert, [(r, 2)])


def test_cocompact_empty_ball():
    _space, act, _mu = presets.free_instance()
    with pytest.raises(DomainError, match="radius 0 has zero mass"):
        cocompact_bg_check(act, (), delta=0, D=0, K=math.log(3),
                           pairs=[(0, 2)])


def _torus5_certificate():
    space, act, _mu = presets.torus_instance(5)
    cert = check_weak_bg(space, VertexMeasure(), (0, 0),
                         BGParams(1, 5.0 + 1e-6, 0.0), 16)
    assert cert.status == VERIFIED
    return space, act, cert


def test_strengthened_empty_ball():
    _space, act, cert = _torus5_certificate()
    far = VertexMeasure(weights={(9, 9): 1})
    with pytest.raises(DomainError, match="radius 1/2 has zero mass"):
        strengthened_bg_check(act, (0, 0), cert, D=4,
                              pairs=[(Fraction(1, 2), 3)], measure=far)


# -- skipped and empty pair lists ------------------------------------------


def test_cocompact_names_why_an_invariant_pair_is_skipped():
    _space, act, _mu = presets.free_instance()
    rows = cocompact_bg_check(act, (), delta=0, D=0, K=0,
                              pairs=[(3, 2), (3, 3)], measure=VertexMeasure())
    skipped = [row.note for row in rows if row.formula == "invariant(i)"]
    assert skipped == ["skipped: R <= r", "skipped: R <= r"]
    rows = cocompact_bg_check(act, (), delta=1, D=0, K=0, pairs=[(3, 2)],
                              measure=VertexMeasure())
    assert rows[0].note == "skipped: r below (5/2)(7D+4delta)"


def test_classic_bound_with_no_pairs():
    space, _act, mu = presets.lattice_instance()
    params = BGParams(1, 8.0, 1.0)
    cert = check_weak_bg(space, mu, (0, 0), params, 16)
    assert cert.status == VERIFIED
    assert check_classic_bound(space, mu, (0, 0), params, cert, []) == []
    # the certificate gates still come first
    with pytest.raises(DomainError, match="another center"):
        check_classic_bound(space, mu, (5, 5), params, cert, [])


# -- certificate gates -----------------------------------------------------


def test_classic_bound_refuses_a_certificate_for_other_params_or_center():
    space, _act, mu = presets.lattice_instance()
    params = BGParams(1, 8.0, 1.0)
    cert = check_weak_bg(space, mu, (0, 0), params, 16)
    assert cert.status == VERIFIED
    with pytest.raises(DomainError, match="other parameters"):
        check_classic_bound(space, mu, (0, 0), BGParams(1, 2.0, 0.0), cert,
                            [(1, 2)])
    with pytest.raises(DomainError, match="another center"):
        check_classic_bound(space, mu, (5, 5), params, cert, [(1, 2)])
    merged = check_weak_bg(space, mu, [(0, 0), (1, 0)], params, 16)
    assert merged.center == "all sampled" and merged.status == VERIFIED
    rows = check_classic_bound(space, mu, (1, 0), params, merged, [(1, 2)])
    assert [row.holds for row in rows] == [True]


def test_strengthened_refuses_a_synthetic_certificate():
    space, act, _mu = presets.torus_instance(5)
    cert = check_bg_synthetic(space, VertexMeasure(), (0, 0),
                              SyntheticParams(3, 1), 6)
    assert cert.status == VERIFIED
    with pytest.raises(DomainError, match="weak"):
        strengthened_bg_check(act, (0, 0), cert, D=4, pairs=[(2, 6)])


# -- profile builds --------------------------------------------------------


@pytest.fixture
def profile_builds(monkeypatch):
    """Record every `Measure.profile` call, whichever subclass serves it."""
    calls = []
    for cls in vars(measures).values():
        if (isinstance(cls, type) and issubclass(cls, measures.Measure)
                and "profile" in cls.__dict__):
            def wrapped(self, space, center, upto, _original=cls.profile):
                calls.append((type(self).__name__, center, upto))
                return _original(self, space, center, upto)
            monkeypatch.setattr(cls, "profile", wrapped)
    return calls


def test_cocompact_free2_builds_one_profile(profile_builds):
    _space, act, _mu = presets.free_instance()
    rows = cocompact_bg_check(act, (), delta=0, D=0, K=math.log(3),
                              pairs=[(r, 2 * r) for r in range(1, 11)])
    assert len(rows) == 20 and all(row.holds for row in rows)
    assert profile_builds == [("CountingOrbitMeasure", (), 20)]


def test_cocompact_torus5_builds_one_profile_per_measure(profile_builds):
    _space, act, _mu = presets.torus_instance(5)
    rows = cocompact_bg_check(act, (0, 0), delta=2, D=act.quotient_diameter(),
                              K=0.1, pairs=[(60, 80), (90, 110)],
                              measure=VertexMeasure())
    assert [row.holds for row in rows].count(True) == 5
    assert sorted(profile_builds) == [("CountingOrbitMeasure", (0, 0), 180),
                                      ("VertexMeasure", (0, 0), 110)]


def test_strengthened_builds_one_profile(profile_builds):
    _space, act, cert = _torus5_certificate()
    del profile_builds[:]
    pairs = [(1, 4), (1, 6), (1, 8), (Fraction(3, 2), 6), (2, 6), (2, 8),
             (2, 12), (3, 8), (3, 12), (4, 10), (4, 12), (4, 16)]
    rows = strengthened_bg_check(act, (0, 0), cert, D=4, pairs=pairs)
    assert len(rows) == 15 and all(row.holds for row in rows)
    assert profile_builds == [("CountingOrbitMeasure", (0, 0), 16)]


# -- the margin rule -------------------------------------------------------


@pytest.mark.parametrize("rhs", [1.0, 3.0, 14641.0, 2.5e-7])
def test_verdict_band_edges(rhs):
    upper, lower = rhs * (1.0 + MARGIN), rhs * (1.0 - MARGIN)
    assert band(rhs) == (lower, upper)
    assert verdict(upper, rhs) == VIOLATED
    assert verdict(math.nextafter(upper, math.inf), rhs) == VIOLATED
    assert verdict(math.nextafter(upper, 0.0), rhs) == INCONCLUSIVE
    assert verdict(rhs, rhs) == INCONCLUSIVE
    assert verdict(math.nextafter(lower, math.inf), rhs) == INCONCLUSIVE
    assert verdict(lower, rhs) == VERIFIED
    assert verdict(math.nextafter(lower, 0.0), rhs) == VERIFIED
    # an exact lhs is read as its nearest double
    assert verdict(Fraction(upper), rhs) == VIOLATED
    assert verdict(Fraction(lower), rhs) == VERIFIED
    # the scan's inline compares against the edges of band(rhs), at or
    # above the upper edge violated and above the lower one inconclusive,
    # give verdict's answer at each edge float and its neighbours
    verified, violated = band(rhs)
    for edge in (lower, rhs, upper):
        for lhs in (math.nextafter(edge, 0.0), edge,
                    math.nextafter(edge, math.inf)):
            inline = (VIOLATED if lhs >= violated else
                      INCONCLUSIVE if lhs > verified else VERIFIED)
            assert inline == verdict(lhs, rhs), (lhs, rhs)


def test_cross_checks_report_the_band():
    rep = bound_cross_check("generators", 14641, {"N": 2, "K": 0, "D": 6})
    assert rep.bound == 14641.0
    assert rep.holds is None and "margin band" in rep.details["note"]
    bound = rep.bound * (1 + 2 * MARGIN)
    assert bound_cross_check("generators", bound,
                             {"N": 2, "K": 0, "D": 6}).holds is False


def test_check_command_reports_the_band(capsys):
    code = run(["check", "generators", "--measured", "14641",
                "--params", '{"N": 2, "K": 0, "D": 6}'])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "check generators: inconclusive (slack 0)\n"
    assert '"status": "inconclusive"' in out


def test_margin_rule_lives_in_exact():
    # exact.verdict and exact.band apply the one margin; no other module
    # compares against MARGIN or keeps a tolerance of its own
    for path in sorted(Path(bgkit.__file__).parent.glob("*.py")):
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, attr, None)
                     for attr in ("id", "attr", "name")}
            assert "MARGIN" not in names, (path.name, node.lineno)
            if isinstance(node, ast.Constant):
                assert node.value != 1e-12, (path.name, node.lineno)
