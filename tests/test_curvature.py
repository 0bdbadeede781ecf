import bisect
import math
import random
from fractions import Fraction

import pytest
from test_pair_checks import _tally

from bgkit import curvature, presets
from bgkit.actions import GluedLineShiftAction, LeftTranslationAction
from bgkit.bounds import evaluate_bound
from bgkit.curvature import (BGParams, SyntheticParams, Violation,
                             check_bg_synthetic, check_classic_bound,
                             check_weak_bg, classic_ratio_bound,
                             doubling_constant, min_exponent,
                             synthetic_to_weak, weak_to_synthetic)
from bgkit.exact import (DomainError, INCONCLUSIVE, MARGIN, VERIFIED,
                         VIOLATED, WindowError, fmt_rational, log_of_rational,
                         verdict)
from bgkit.groups import FreeAbelianFamily, FreeFamily, TrivialFamily
from bgkit.measures import DistanceProfile, VertexMeasure, counting_measure
from bgkit.spaces import CayleySpace, GluedLineSpace


def lattice_setup():
    act = LeftTranslationAction(FreeAbelianFamily(2))
    return act.space, counting_measure(act, (0, 0))


def free_setup():
    act = LeftTranslationAction(FreeFamily(2))
    return act.space, counting_measure(act, ())


def atom_setup():
    act = LeftTranslationAction(TrivialFamily())
    return act.space, counting_measure(act, ())


def glued_setup(eps=Fraction(1, 10), hair=Fraction(1, 2), window=60):
    gl = GluedLineSpace(eps, hair, window)
    act = GluedLineShiftAction(gl)
    return gl, counting_measure(act, gl.tip(0)), gl.tip(0)


# -- weak scans ---------------------------------------------------------------


def test_lattice_weak_certificate_verifies():
    space, mu = lattice_setup()
    cert = check_weak_bg(space, mu, (0, 0), BGParams(1, 8.0, 1.0), 20)
    assert cert.status == VERIFIED
    assert cert.critical_radii_checked > 30


def test_glued_line_violation_witness():
    # hair length r0/2 with r0 = 1: the ball of radius 11/10 at a tip holds
    # one orbit point while the double ball holds 23
    space, mu, tip = glued_setup()
    cert = check_weak_bg(space, mu, tip, BGParams(1, 4.0, 1.0), Fraction(3, 2))
    assert cert.status == VIOLATED
    assert cert.witness.lhs == 23
    assert cert.witness.radius == Fraction(11, 10)
    assert math.isclose(cert.witness.rhs, 4 * math.exp(1.1), rel_tol=1e-12)
    # the earliest violation is at the scale itself: open ratio 19/1 at r = 1
    assert cert.first_violation.radius == 1
    assert cert.first_violation.lhs == 19


def test_glued_line_fine_hairs_break_synthetic():
    space, mu, tip = glued_setup(eps=Fraction(1, 100), window=310)
    params = SyntheticParams(N=2, K=2)
    cert = check_bg_synthetic(space, mu, tip, params, Fraction(3, 2))
    assert cert.status == VIOLATED
    assert cert.witness.radius == Fraction(101, 100)
    assert cert.witness.lhs == 203     # 2*floor(r0/eps) + 3


def test_synthetic_scale_is_computed_once_and_is_no_field():
    params = SyntheticParams(N=2.5, K=0.5)
    assert params.scale == 5 and type(params.scale) is Fraction
    assert params.scale is params.scale
    # the cached value is not a field: equality, hashing, repr and the
    # field list see N and K only
    fresh = SyntheticParams(N=2.5, K=0.5)
    assert params == fresh and hash(params) == hash(fresh)
    assert repr(params) == repr(fresh) == "SyntheticParams(N=2.5, K=0.5)"
    assert {name: getattr(params, name) for name in params._fields} == {
        "N": 2.5, "K": 0.5}


def test_atom_always_verifies():
    space, mu = atom_setup()
    cert = check_bg_synthetic(space, mu, (), SyntheticParams(2, 1), 10)
    assert cert.status == VERIFIED
    cert2 = check_weak_bg(space, mu, (), BGParams(1, 2.0, 0.0), 10)
    assert cert2.status == VERIFIED


def test_lattice_synthetic_certificate():
    space, mu = lattice_setup()
    cert = check_bg_synthetic(space, mu, (0, 0), SyntheticParams(2, 1), 20)
    assert cert.status == VERIFIED


def test_zero_mass_hypothesis_error():
    space, mu, _tip = glued_setup()
    # centered off the orbit: small balls have zero counting mass
    with pytest.raises(DomainError):
        check_weak_bg(space, mu, space.base(0),
                      BGParams(Fraction(1, 4), 2.0, 0.0), 1)


def test_all_centers_scan():
    space, mu = lattice_setup()
    centers = [(0, 0), (1, 0), (2, 2)]
    cert = check_weak_bg(space, mu, centers, BGParams(1, 8.0, 1.0), 10)
    assert cert.status == VERIFIED
    assert cert.center == "all sampled"


def test_monotonicity_in_c_and_k():
    space, mu, tip = glued_setup()
    base = BGParams(1, 4.0, 1.0)
    assert check_weak_bg(space, mu, tip, base, Fraction(3, 2)).status == VIOLATED
    assert check_weak_bg(space, mu, tip, BGParams(1, 30.0, 1.0),
                         Fraction(3, 2)).status == VERIFIED
    assert check_weak_bg(space, mu, tip, BGParams(1, 4.0, 3.1),
                         Fraction(3, 2)).status == VERIFIED


# -- min exponent -------------------------------------------------------------


def test_min_exponent_atom_is_zero():
    space, mu = atom_setup()
    assert min_exponent(space, mu, (), 1, 2.0, 10) == 0.0


def test_min_exponent_lattice_small():
    space, mu = lattice_setup()
    assert min_exponent(space, mu, (0, 0), 2, 16.0, 50) <= 0.02


def oracle_free_min_exponent(C, r_max):
    """Independent oracle: closed-form ball sizes 2*3^r - 1, both check forms."""
    def closed_ball(r):
        return 2 * 3 ** r - 1 if r >= 0 else None
    best = 0.0
    ln_c = math.log(C)
    for j in range(1, r_max + 1):
        # at integer radius j: strict masses
        lhs = Fraction(closed_ball(2 * j - 1), closed_ball(j - 1))
        best = max(best, (math.log(lhs.numerator) - math.log(lhs.denominator) - ln_c) / j)
        # just above j (for j < r_max): closed masses
        if j < r_max:
            lhs = Fraction(closed_ball(2 * j), closed_ball(j))
            best = max(best, (math.log(lhs.numerator) - math.log(lhs.denominator) - ln_c) / j)
        # at and just above half-integer radii j + 1/2
        if j + 0.5 <= r_max:
            a = j + 0.5
            lhs = Fraction(closed_ball(2 * j), closed_ball(j))
            best = max(best, (math.log(lhs.numerator) - math.log(lhs.denominator) - ln_c) / a)
            lhs = Fraction(closed_ball(2 * j + 1), closed_ball(j))
            best = max(best, (math.log(lhs.numerator) - math.log(lhs.denominator) - ln_c) / a)
    return max(best, 0.0)


def test_min_exponent_free_group_matches_oracle():
    space, mu = free_setup()
    got = min_exponent(space, mu, (), 1, 81.0, 12)
    want = oracle_free_min_exponent(81.0, 12)
    assert math.isclose(got, want, rel_tol=1e-9)
    # frozen oracle value: the binding radius is 11.5
    assert math.isclose(want, 0.76426, rel_tol=1e-4)
    # and the certificate with a small pad verifies
    cert = check_weak_bg(space, mu, (), BGParams(1, 81.0, got + 1e-9), 12)
    assert cert.status == VERIFIED


# -- conversions --------------------------------------------------------------


def test_weak_to_synthetic_formula():
    assert weak_to_synthetic(BGParams(2, 8.0, 1.0)).N == 3
    assert weak_to_synthetic(BGParams(10, 2.0, 1.0)).N == 10
    assert weak_to_synthetic(BGParams(3, 8.0, 1.0)).N == 3   # tie case
    with pytest.raises(DomainError):
        weak_to_synthetic(BGParams(1, 2.0, 0.0))


def test_synthetic_to_weak_formula():
    w = synthetic_to_weak(SyntheticParams(2, 1))
    assert (w.r0, w.C, w.K) == (2, 4.0, 1.0)
    w = synthetic_to_weak(SyntheticParams(3, 3))
    assert (w.r0, w.C, w.K) == (1, 8.0, 3.0)


def test_round_trip():
    p = SyntheticParams(2, 1)
    back = weak_to_synthetic(synthetic_to_weak(p))
    assert math.isclose(back.N, p.N) and back.K == p.K


def test_classic_ratio_bound_values():
    assert classic_ratio_bound(1, 2, BGParams(1, 2.0, 0.0)) == 4.0
    assert classic_ratio_bound(1, 4, BGParams(1, 2.0, 0.0)) == 8.0
    got = classic_ratio_bound(2, 4, SyntheticParams(2, 1))
    assert math.isclose(got, 4 * 4 * math.exp(4), rel_tol=1e-12)
    with pytest.raises(DomainError):
        classic_ratio_bound(2, 2, BGParams(1, 2.0, 0.0))


def test_check_classic_bound_lattice():
    space, mu = lattice_setup()
    params = BGParams(1, 8.0, 1.0)
    cert = check_weak_bg(space, mu, (0, 0), params, 16)
    pairs = [(r, R) for r in (1, 2, 3, 4) for R in (2, 4, 8, 16) if R > r]
    checks = check_classic_bound(space, mu, (0, 0), params, cert, pairs)
    assert all(c.holds for c in checks)
    with pytest.raises(DomainError):
        check_classic_bound(space, mu, (0, 0), params, cert, [(1, 32)])


def test_check_classic_bound_free_group():
    space, mu = free_setup()
    params = BGParams(1, 81.0, 1.2)
    cert = check_weak_bg(space, mu, (), params, 10)
    assert cert.status == VERIFIED
    pairs = [(r, R) for r in (1, 2, 3) for R in (2, 5, 10) if R > r]
    checks = check_classic_bound(space, mu, (), params, cert, pairs)
    assert all(c.holds for c in checks)


def test_classic_bounds_refuse_what_they_cannot_bound():
    with pytest.raises(DomainError, match=r"^need r0 <= r < R$"):
        classic_ratio_bound(Fraction(1, 2), 2, BGParams(1, 2.0, 0.0))
    with pytest.raises(DomainError, match="^need N/K <= r < R$"):
        classic_ratio_bound(1, 4, SyntheticParams(2, 1))
    with pytest.raises(DomainError, match="^params must be weak or synth"):
        classic_ratio_bound(1, 2, (1, 2.0, 0.0))
    space, mu = lattice_setup()
    params, low = BGParams(1, 8.0, 1.0), BGParams(1, 2.0, 0.0)
    violated = check_weak_bg(space, mu, (0, 0), low, 4)
    assert violated.status == VIOLATED
    for cert, checked in ((None, params), (violated, low)):
        with pytest.raises(DomainError, match="needs a verified certificate"):
            check_classic_bound(space, mu, (0, 0), checked, cert, [(1, 2)])
    cert = check_weak_bg(space, mu, (0, 0), params, 4)
    with pytest.raises(DomainError, match=(
            "^certificate verified only to 4, pairs reach 8$")):
        check_classic_bound(space, mu, (0, 0), params, cert, [(1, 8)])
    with pytest.raises(DomainError, match=r"^need r < R, got \(2, 2\)$"):
        check_classic_bound(space, mu, (0, 0), params, cert, [(2, 2)])


def test_log_of_rational_refuses_nonpositive_and_reads_huge_terms():
    for q in (0, -1, Fraction(-1, 3)):
        with pytest.raises(DomainError, match="^log of nonpositive rational$"):
            log_of_rational(q)
    # both terms pass the double range; their logs do not
    assert math.isclose(log_of_rational(Fraction(3 ** 700, 2 ** 1100)),
                        700 * math.log(3) - 1100 * math.log(2))


def test_scans_refuse_floats_past_the_double_range():
    # 2^N overflows from N = 1024 on; the largest double below it is fine
    with pytest.raises(DomainError, match="N must be below 1024"):
        SyntheticParams(1024, 1)
    assert SyntheticParams(1023.5, 1).N == 1023.5
    space, mu = atom_setup()
    # one row: C e^K at r = 1 passes the double range though neither does
    with pytest.raises(DomainError, match=(
            r"^the bound 1e\+308 exp\(1.0 r\) cannot be evaluated in double "
            "precision at radius 1$")):
        check_weak_bg(space, mu, (), BGParams(1, 1e308, 1.0), 1)
    assert check_weak_bg(space, mu, (), BGParams(1, 1e307, 1.0),
                         1).status == VERIFIED
    space, mu = lattice_setup()
    with pytest.raises(DomainError, match=(
            r"^the bound 8.0 exp\(1.0 r\) cannot be evaluated in double "
            "precision at radius 710$")):
        check_weak_bg(space, mu, (0, 0), BGParams(1, 8.0, 1.0), 800)
    space, mu = free_setup()
    with pytest.raises(DomainError, match=(
            r"^the ratio at radius 1293/2 passes the double range, so the "
            r"bound 2.0 exp\(0.0 r\) cannot be checked against it$")):
        check_weak_bg(space, mu, (), BGParams(1, 2.0, 0.0), 700)


# -- doubling -----------------------------------------------------------------


def test_doubling_atom():
    space, mu = atom_setup()
    sup, _where = doubling_constant(space, mu, (), 2)
    assert sup == 1


def test_doubling_free_group_oracle():
    space, mu = free_setup()
    sup, where = doubling_constant(space, mu, (), 2)
    # sup of open-ball ratios on [1, 5]: reached on (9/2, 5] with value
    # closed(9)/closed(4) in the exact ball counts 2*3^r - 1
    assert sup == Fraction(2 * 3 ** 9 - 1, 2 * 3 ** 4 - 1)
    assert where in (Fraction(9, 2), Fraction(5))


def doubling_to_bg(C0, r0, r):
    return evaluate_bound("doubling_to_bg", {"C0": C0, "r0": r0, "r": r})


def test_doubling_lattice_consistency_with_bound():
    space, mu = lattice_setup()
    sup, _ = doubling_constant(space, mu, (0, 0), 4)
    C0 = float(sup) * (1 + 1e-9)
    profile = mu.profile(space, (0, 0), 40)
    for r in (2, 3, 5, 8, 10):
        lhs = Fraction(profile.mass_lt(2 * r)) / profile.mass_lt(r)
        assert float(lhs) <= doubling_to_bg(C0, 4, r) * (1 + 1e-9)


def test_doubling_to_bg_bound_values():
    assert math.isclose(doubling_to_bg(2.0, 1, 1), 2 ** 9.5, rel_tol=1e-12)
    assert math.isclose(doubling_to_bg(2.0, 2, 1), 2 ** 7.25, rel_tol=1e-12)
    # C0 -> 1+ sends the bound to 1
    assert doubling_to_bg(1.0 + 1e-12, 1, 3) < 1.001
    # r = r0/2 is the smallest radius the bound covers
    assert math.isclose(doubling_to_bg(2.0, 4, 2), 2 ** 7.25, rel_tol=1e-12)
    with pytest.raises(DomainError, match="valid only for r >= r0/2"):
        doubling_to_bg(2.0, 4, 1)
    with pytest.raises(DomainError, match="valid only for r >= r0/2"):
        doubling_to_bg(2.0, 4, math.nextafter(2.0, 0.0))
    for C0 in (1.0, 0.5, 0.0, -2.0):
        with pytest.raises(DomainError,
                           match="doubling constant must be finite and > 1"):
            doubling_to_bg(C0, 1, 1)
    for r0 in (0.0, -1.0):
        with pytest.raises(DomainError,
                           match="doubling scale must be positive"):
            doubling_to_bg(2.0, r0, 1)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_bg_params_refuse_non_finite_values(bad):
    # NaN passes every `<` test, so an unchecked K = NaN would give NaN
    # right-hand sides that verdict reads as "verified"
    with pytest.raises(DomainError, match="factor C must be finite and > 1"):
        BGParams(1, bad, 1.0)
    with pytest.raises(DomainError,
                       match="exponent K must be finite and >= 0"):
        BGParams(1, 2.0, bad)
    with pytest.raises(DomainError, match="cannot interpret"):
        BGParams(bad, 2.0, 1.0)
    space, mu = lattice_setup()
    with pytest.raises(DomainError, match="factor C must be finite and > 1"):
        min_exponent(space, mu, (0, 0), 1, bad, 4)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_synthetic_params_refuse_non_finite_values(bad):
    with pytest.raises(DomainError,
                       match="dimension N must be finite and positive"):
        SyntheticParams(bad, 1.0)
    with pytest.raises(DomainError,
                       match="exponent K must be finite and positive"):
        SyntheticParams(1.0, bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_doubling_params_refuse_non_finite_values(bad):
    with pytest.raises(DomainError, match="needs finite parameters"):
        doubling_to_bg(bad, 1, 1)
    with pytest.raises(DomainError, match="needs finite parameters"):
        doubling_to_bg(2.0, bad, 1)


def test_diameter_shift_all_centers_on_torus():
    # one-center certificate for a (5Z)^2-invariant periodic measure implies
    # the shifted certificate at every center of the fundamental domain
    from bgkit.measures import VertexMeasure
    act = LeftTranslationAction(FreeAbelianFamily(2))
    space = act.space

    def weight(p):
        return 2 if (p[0] % 5 == 0 and p[1] % 5 == 0) else 1

    mu = VertexMeasure(weight_fn=weight)
    params = BGParams(1, 16.0, 0.5)
    base = check_weak_bg(space, mu, (0, 0), params, 18)
    assert base.status == VERIFIED
    # scale r0 + 5D/2, factor C^2, exponent 2K, with D = 4 the codiameter
    # of the 5-torus
    shifted = BGParams(params.r0 + Fraction(5, 2) * 4, params.C ** 2,
                       2 * params.K)
    centers = [(i, j) for i in range(5) for j in range(5)]
    cert = check_weak_bg(space, mu, centers, shifted, 18)
    assert cert.status == VERIFIED


# -- soundness audit ----------------------------------------------------------


def _brute_force_recheck(space, measure, x, factor, exponent, lo, hi,
                         samples=200):
    """Independent certificate audit from raw ball enumerations.

    Enumerates once to 2*hi: support points with their masses, or the orbit
    points of a counting measure.  Recomputes mass ratios at the critical
    radii and at `samples` random rationals in [lo, hi] by summing those
    rows (no profile machinery).  Returns the list of (radius, lhs, rhs)
    violations.
    """
    rng = random.Random(123)
    lo, hi = Fraction(lo), Fraction(hi)
    rows = list(_tally(measure, space, x, 2 * hi).items())
    radii = {cand for d, _m in rows for cand in (d, d / 2) if lo <= cand <= hi}
    radii.add(lo)
    for _ in range(samples):
        num = rng.randint(0, 10 ** 6)
        radii.add(lo + (hi - lo) * Fraction(num, 10 ** 6))
    bad = []
    for r in sorted(radii):
        num = sum(m for d, m in rows if d < 2 * r)
        den = sum(m for d, m in rows if d < r)
        if den == 0:
            continue
        lhs = Fraction(num) / den
        rhs = factor * math.exp(exponent * float(r))
        if float(lhs) > rhs * (1 + 1e-12):
            bad.append((r, lhs, rhs))
    return bad


def test_brute_force_recheck_agrees(monkeypatch):
    space, mu, tip = glued_setup()
    cert = check_weak_bg(space, mu, tip, BGParams(1, 4.0, 1.0), Fraction(3, 2))
    assert cert.status == VIOLATED
    space2, mu2 = lattice_setup()

    # the audit is independent of the profile code it checks
    def refuse(_self, _r):
        raise AssertionError("_brute_force_recheck queried a profile")

    monkeypatch.setattr(DistanceProfile, "mass_lt", refuse)
    monkeypatch.setattr(DistanceProfile, "mass_le", refuse)
    bad = _brute_force_recheck(space, mu, tip, 4.0, 1.0, 1, Fraction(3, 2),
                               samples=80)
    assert bad, "the glued-line instance must show raw violations"
    # verified certificates survive the raw audit, counted or vertex measure
    assert _brute_force_recheck(space2, mu2, (0, 0), 8.0, 1.0, 1, 6,
                                samples=60) == []
    assert _brute_force_recheck(space2, VertexMeasure(), (0, 0), 8.0, 1.0, 1,
                                6, samples=60) == []


def test_scan_at_single_radius():
    # r_max equal to the scale: one critical radius, ratio checked there only
    space, mu = atom_setup()
    cert = check_weak_bg(space, mu, (), BGParams(1, 2.0, 0.0), 1)
    assert cert.status == VERIFIED
    assert cert.critical_radii_checked == 1


# -- the int-tick scan against the Fraction scan ------------------------------


def _raw_profile(space, measure, x, upto):
    """Sorted distances and cumulative masses within `upto` of x, tallied
    from raw enumeration rows, with no profile code."""
    tally = _tally(measure, space, x, upto)
    dists = sorted(Fraction(d) for d, m in tally.items() if m)
    cum, total = [], Fraction(0)
    for d in dists:
        total += tally[d]
        cum.append(total)
    return dists, cum


def _fraction_critical_checks(dists, cum, lo, hi):
    """The critical-radius scan on Fraction distances, with bisect over
    Fractions and Fraction compares: the oracle for the int-tick scan."""
    def mass(idx):
        return cum[idx - 1] if idx else Fraction(0)

    def mass_lt(r):
        return mass(bisect.bisect_left(dists, r))

    def mass_le(r):
        return mass(bisect.bisect_right(dists, r))

    def breakpoints_in(a, b):
        return dists[bisect.bisect_left(dists, a):bisect.bisect_right(dists, b)]

    breaks = set(breakpoints_in(lo, hi))
    for d in breakpoints_in(2 * lo, 2 * hi):
        half = d / 2
        if lo <= half <= hi:
            breaks.add(half)
    breaks.add(lo)
    for a in sorted(breaks):
        num, den = mass_lt(2 * a), mass_lt(a)
        yield a, (Fraction(num) / den if den > 0 else None), "at"
        if a < hi:
            num, den = mass_le(2 * a), mass_le(a)
            yield a, (Fraction(num) / den if den > 0 else None), "above"


def _torus5_weighted():
    weights = {(i, j): Fraction(1 + (i * j) % 5, 2 + (i + j) % 3)
               for i in range(-3, 4) for j in range(-3, 4)}
    return (CayleySpace(FreeAbelianFamily(2)), VertexMeasure(weights=weights),
            (0, 0))


def _lattice2():
    space, mu = lattice_setup()
    return space, mu, (0, 0)


def _line():
    act = LeftTranslationAction(FreeAbelianFamily(1))
    return act.space, counting_measure(act, (0,)), (0,)


SCAN_CASES = [
    # hair tips sit at odd tenths such as 21/10, whose halves need S = 2 lcm
    ("glued-tip", glued_setup, Fraction(1), Fraction(3)),
    ("glued-tip-lo-eq-hi", glued_setup, Fraction(21, 20), Fraction(21, 20)),
    ("glued-tip-off-grid", glued_setup, Fraction(11, 10), Fraction(13, 7)),
    ("torus5-weighted", _torus5_weighted, Fraction(1), Fraction(4)),
    # the support ends at distance 6, below 2 lo = 7
    ("torus5-weighted-past-last-tick", _torus5_weighted, Fraction(7, 2),
     Fraction(9, 2)),
    ("lattice2", _lattice2, Fraction(137, 100), Fraction(6)),
    ("lattice2-lo-eq-hi", _lattice2, Fraction(137, 100), Fraction(137, 100)),
    # the one lhs is 85/25, and ln 85 - ln 25 differs from ln 17 - ln 5 in
    # the last bit: min_exponent must take the logs of the reduced ratio
    ("lattice2-shared-factor", _lattice2, Fraction(7, 2), Fraction(7, 2)),
    # no critical radius in [lo, hi]: the two rows at lo have one lhs, and
    # the worst violation is the earlier, "at", row
    ("line-no-critical-radius", _line, Fraction(3, 5), Fraction(9, 10)),
]

scan_cases = pytest.mark.parametrize(
    "setup,lo,hi", [c[1:] for c in SCAN_CASES], ids=[c[0] for c in SCAN_CASES])


@scan_cases
def test_int_tick_scan_matches_fraction_scan(setup, lo, hi):
    space, mu, x = setup()
    profile = mu.profile(space, x, 2 * hi)
    dists, cum = _raw_profile(space, mu, x, 2 * hi)
    assert (profile.distances, profile.cumulative) == (dists, cum)
    step, rows = curvature._critical_checks(profile, lo, hi)
    assert rows and all(type(v) is int for row in rows for v in row[:3])
    got = [(Fraction(a, step), Fraction(num, den), form)
           for a, num, den, form in rows]
    assert got == list(_fraction_critical_checks(dists, cum, lo, hi))


SHARED_CASES = [("glued-tip", glued_setup, Fraction(3)),
                ("torus5-weighted", _torus5_weighted, Fraction(4)),
                ("lattice2", _lattice2, Fraction(6))]


@pytest.mark.parametrize("setup,top", [c[1:] for c in SHARED_CASES],
                         ids=[c[0] for c in SHARED_CASES])
def test_one_profile_serves_many_scans(setup, top):
    # one profile object, scanned over a shuffled list of (lo, hi) with two
    # hi, each scan against the Fraction scan on a fresh raw enumeration
    space, mu, x = setup()
    profile = mu.profile(space, x, 2 * top)
    dists, cum = _raw_profile(space, mu, x, 2 * top)
    cases = []
    for hi in (top, top * 3 / 4 + Fraction(1, 13)):
        on = next(d for d in dists if hi / 3 < d < hi)
        off = on + Fraction(1, 997)
        assert off not in dists and 2 * off not in dists
        float_scale = SyntheticParams(float(hi) / 2, 1.1).scale
        assert float_scale.denominator > 2 ** 40
        cases += [(lo, hi) for lo in (on, on / 2, off, hi, float_scale)]
    random.Random(21).shuffle(cases)
    for lo, hi in cases * 2:
        step, rows = curvature._critical_checks(profile, lo, hi)
        assert step == 2 * math.lcm(profile.scale, lo.denominator,
                                    hi.denominator)
        got = [(Fraction(a, step), Fraction(num, den), form)
               for a, num, den, form in rows]
        assert got == list(_fraction_critical_checks(dists, cum, lo, hi))
    # min_exponent and doubling_constant hit the measure's memo, so they
    # read the same profile and its table for hi = top
    table = profile.critical_table()
    for C in (1.5, 4.0):
        assert (min_exponent(space, mu, x, dists[1], C, top)
                == _fraction_min_exponent(dists, cum, dists[1], C, top))
    assert (doubling_constant(space, mu, x, 2 * top / 5)
            == _fraction_doubling_constant(dists, cum, 2 * top / 5))
    assert mu.profile(space, x, 2 * top) is profile
    assert profile.critical_table() is table


@pytest.mark.parametrize("setup", [_lattice2, _torus5_weighted, glued_setup])
def test_scan_past_half_the_profile_radius_is_refused(setup):
    # one table per profile, to half its radius: a scan ending inside it is
    # cut there, one ending past it is refused with the profile's error
    space, mu, x = setup()
    upto = Fraction(5)
    profile = mu.profile(space, x, upto)
    table = profile.critical_table()
    dists, cum = _raw_profile(space, mu, x, upto)
    half = upto / 2
    # lo above hi, lo a critical radius among them, and hi on and off one
    for lo, hi in [(Fraction(1), half), (half, half), (Fraction(1, 3), 2),
                   (Fraction(2), Fraction(3, 2)), (Fraction(1), Fraction(1)),
                   (Fraction(1, 2), Fraction(7, 3))]:
        step, rows = curvature._critical_checks(profile, lo, hi)
        got = [(Fraction(a, step), Fraction(num, den) if den else None, form)
               for a, num, den, form in rows]
        assert got == list(_fraction_critical_checks(dists, cum, lo, hi))
    for hi in (half + Fraction(1, 7), Fraction(3), Fraction(5)):
        with pytest.raises(WindowError, match=(
                rf"^profile only exhaustive to 5, asked for "
                rf"{fmt_rational(2 * hi)}$")):
            curvature._critical_checks(profile, Fraction(1), hi)
    assert profile.critical_table() is table


def test_lattice_scan_past_the_table_reads_no_wrong_ratio():
    # a profile to 8 once answered a scan to 5 with 145/41 at radius 5, the
    # closed 8-ball over the open 5-ball; the open 10-ball holds 181 points
    space, mu, x = _lattice2()
    profile = mu.profile(space, x, 8)
    with pytest.raises(WindowError, match="exhaustive to 8, asked for 10"):
        curvature._critical_checks(profile, Fraction(5), Fraction(5))
    step, rows = curvature._critical_checks(mu.profile(space, x, 10),
                                            Fraction(5), Fraction(5))
    assert [(Fraction(a, step), Fraction(num, den), form)
            for a, num, den, form in rows] == [(5, Fraction(181, 41), "at")]


def _fraction_scan(raws, lo, hi, factor, exponent):
    """The certificate scan on Fraction radii and lhs, with Fraction
    compares for the worst violation, over the raw (dists, cum) profile of
    each center in turn: the oracle for `curvature._scan`."""
    out = {"status": VERIFIED, "witness": None, "first_violation": None,
           "critical_radii_checked": 0, "violations": 0, "notes": [],
           "scan_rows": []}
    worst = None
    for dists, cum in raws:
        noted = False
        for radius, lhs, form in _fraction_critical_checks(dists, cum, lo, hi):
            out["critical_radii_checked"] += 1
            rhs = factor * math.exp(exponent * float(radius))
            out["scan_rows"].append((radius, lhs, rhs))
            status = verdict(lhs, rhs)
            if status == VIOLATED:
                out["violations"] += 1
                v = Violation(radius=radius, lhs=lhs, rhs=rhs, form=form)
                if out["first_violation"] is None:
                    out["first_violation"] = v
                if worst is None or (lhs, radius) > (worst.lhs, worst.radius):
                    worst = v
            elif status == INCONCLUSIVE and not noted:
                noted = True
                out["status"] = INCONCLUSIVE
                out["notes"].append(f"ratio at {fmt_rational(radius)} inside "
                                    "the float margin band")
    if worst is not None:
        out["status"] = VIOLATED
        out["witness"] = worst
    return out


def _certificate_fields(cert):
    rows = list(cert.scan_rows)
    assert all(type(r) is Fraction and type(lhs) is Fraction
               and type(rhs) is float for r, lhs, rhs in rows)
    return {"status": cert.status, "witness": cert.witness,
            "first_violation": cert.first_violation,
            "critical_radii_checked": cert.critical_radii_checked,
            "violations": cert.violations, "notes": cert.notes,
            "scan_rows": rows}


@scan_cases
def test_scan_matches_fraction_scan(setup, lo, hi):
    space, mu, x = setup()
    dists, cum = _raw_profile(space, mu, x, 2 * hi)
    sup = max(lhs for _r, lhs, _form
              in _fraction_critical_checks(dists, cum, lo, hi))
    # with K = 0 a factor of float(sup) puts the sup on the margin band, and
    # a factor below it violates
    statuses = []
    for C, K in ((4.0, 1.0), (float(sup), 0.0), ((1 + float(sup)) / 2, 0.0)):
        cert = check_weak_bg(space, mu, x, BGParams(lo, C, K), hi)
        assert _certificate_fields(cert) == _fraction_scan([(dists, cum)], lo,
                                                           hi, C, K)
        statuses.append(cert.status)
    assert statuses[1:] == [INCONCLUSIVE, VIOLATED]
    # N/K is lo exactly: both are lo's terms over a power of two
    N, K = lo.numerator / 64, lo.denominator / 64
    cert = check_bg_synthetic(space, mu, x, SyntheticParams(N, K), hi)
    assert cert.r_min == lo
    assert _certificate_fields(cert) == _fraction_scan([(dists, cum)], lo, hi,
                                                       2.0 ** N, K)


CENTER_LIST_CASES = [
    ("glued-tip", glued_setup, lambda gl: [gl.tip(0), gl.base(0), gl.tip(1),
                                           gl.base(Fraction(1, 20))],
     Fraction(1), Fraction(5, 2)),
    ("torus5-weighted", _torus5_weighted,
     lambda _space: [(0, 0), (1, 0), (-1, 2)], Fraction(1), Fraction(3)),
    ("lattice2", _lattice2, lambda _space: [(0, 0), (2, -1)],
     Fraction(137, 100), Fraction(6)),
]


@pytest.mark.parametrize("setup,centers,lo,hi",
                         [c[1:] for c in CENTER_LIST_CASES],
                         ids=[c[0] for c in CENTER_LIST_CASES])
def test_center_list_scan_matches_fraction_scan(setup, centers, lo, hi):
    space, mu, _x = setup()
    centers = centers(space)
    raws = [_raw_profile(space, mu, c, 2 * hi) for c in centers]
    sup = max(lhs for dists, cum in raws for _r, lhs, _form
              in _fraction_critical_checks(dists, cum, lo, hi))
    statuses = []
    for C, K in ((2 * float(sup), 1.0), (float(sup), 0.0),
                 ((1 + float(sup)) / 2, 0.0)):
        cert = check_weak_bg(space, mu, centers, BGParams(lo, C, K), hi)
        assert cert.center == "all sampled"
        assert _certificate_fields(cert) == _fraction_scan(raws, lo, hi, C, K)
        statuses.append(cert.status)
    assert statuses == [VERIFIED, INCONCLUSIVE, VIOLATED]


def _free2():
    space, mu = free_setup()
    return space, mu, ()


NEAR_BAND_CASES = [("lattice2", _lattice2, Fraction(137, 100), Fraction(6)),
                   ("free2", _free2, Fraction(1), Fraction(3)),
                   ("glued-tip", glued_setup, Fraction(1), Fraction(3))]


@pytest.mark.parametrize("setup,lo,hi", [c[1:] for c in NEAR_BAND_CASES],
                         ids=[c[0] for c in NEAR_BAND_CASES])
def test_scan_decides_the_band_edges_as_verdict(setup, lo, hi):
    # with K = 0 every rhs is C: for the smallest and the largest lhs > 1,
    # C walks the floats around lhs/(1+MARGIN) and lhs/(1-MARGIN), where
    # the scan's inline compares against the edges of band(C) switch, and
    # relative offsets 1e-6 .. 1e-13 from them; the oracle takes
    # exact.verdict row by row
    space, mu, x = setup()
    dists, cum = _raw_profile(space, mu, x, 2 * hi)
    lhss = sorted(float(lhs) for _r, lhs, _form
                  in _fraction_critical_checks(dists, cum, lo, hi) if lhs > 1)
    statuses = set()
    for lhs in (lhss[0], lhss[-1]):
        for edge in (lhs / (1 + MARGIN), lhs / (1 - MARGIN)):
            walk = [edge]
            for _ in range(4):
                walk = [math.nextafter(walk[0], 0.0), *walk,
                        math.nextafter(walk[-1], math.inf)]
            # the walk crosses the edge: the verdict of lhs switches on it
            assert len({verdict(lhs, C) for C in walk}) == 2
            offsets = [edge * (1 + sign * 10.0 ** -e)
                       for e in range(6, 14) for sign in (1, -1)]
            for C in walk + offsets:
                cert = check_weak_bg(space, mu, x, BGParams(lo, C, 0.0), hi)
                assert _certificate_fields(cert) == _fraction_scan(
                    [(dists, cum)], lo, hi, C, 0.0), C
                statuses.add(cert.status)
    assert statuses == {VERIFIED, INCONCLUSIVE, VIOLATED}


def test_rows_are_built_on_first_read(monkeypatch):
    # the scan decides without rows: a certificate nobody reads runs only
    # the deciding pass, which builds no `_critical_checks` rows, and its
    # first read of `scan_rows` runs one per profile, which later reads do
    # not repeat
    calls = []
    checks = curvature._critical_checks

    def counted(profile, *args):
        calls.append(profile)
        return checks(profile, *args)

    monkeypatch.setattr(curvature, "_critical_checks", counted)
    space, mu = lattice_setup()
    params = BGParams(Fraction(137, 100), 8.0, 1.0)
    for centers, n in (((0, 0), 1), ([(0, 0), (2, -1), (1, 3)], 3)):
        calls.clear()
        cert = check_weak_bg(space, mu, centers, params, 6)
        assert len(calls) == 0
        again = check_weak_bg(space, mu, centers, params, 6)
        assert len(calls) == 0
        assert "scan_rows" not in vars(cert)
        assert "scan_rows" not in vars(again)
        rows = cert.scan_rows
        assert len(calls) == n
        assert cert.scan_rows is rows and len(calls) == n
        assert again.scan_rows == rows and len(calls) == 2 * n
        assert len(rows) == cert.critical_radii_checked
        # rows are no field: certificates compare, print and encode alike
        # whether or not they were read
        assert cert == again and repr(cert) == repr(again)
        assert "scan_rows" not in cert._fields


def _merged_fields(certs):
    """The fields of a certificate over several centers, combined from their
    single-center certificates: counters summed, notes and rows in center
    order, the first violation of the first violating center, and the worst
    of the worst witnesses, the earlier center winning ties."""
    out = {"status": VERIFIED, "witness": None, "first_violation": None,
           "critical_radii_checked": 0, "violations": 0, "notes": [],
           "scan_rows": []}
    for c in certs:
        fields = _certificate_fields(c)
        for key in ("critical_radii_checked", "violations", "notes",
                    "scan_rows"):
            out[key] += fields[key]
        if out["first_violation"] is None:
            out["first_violation"] = c.first_violation
        if c.status == VIOLATED:
            out["status"] = VIOLATED
            w = out["witness"]
            if w is None or (c.witness.lhs, c.witness.radius) > (w.lhs,
                                                                 w.radius):
                out["witness"] = c.witness
        elif c.status == INCONCLUSIVE and out["status"] == VERIFIED:
            out["status"] = INCONCLUSIVE
    return out


def _preset_center_lists():
    gl = presets.Instance(presets.spec("glued-line")).build()[0]
    return [
        ("lattice2", [(0, 0), (1, 0), (2, 2)], 1, 4),
        ("free2", [(), (1,), (2, -1)], 1, 3),
        ("torus5", [(0, 0), (1, 3), (4, 4)], 4, 9),
        ("line10", [(0,), (4,), (7,)], 5, 17),
        # profile scales 10, 200 and 30: the rows meet on one finer step
        ("glued-line", [gl.tip(0), gl.base(0), gl.tip(2),
                        gl.base(Fraction(1, 20)), gl.base(Fraction(-4, 3))],
         1, 2),
    ]


@pytest.mark.parametrize("outcome", [VERIFIED, VIOLATED, INCONCLUSIVE])
@pytest.mark.parametrize("name,centers,r0,r_max", _preset_center_lists(),
                         ids=[c[0] for c in _preset_center_lists()])
def test_center_list_certificate_combines_single_centers(name, centers, r0,
                                                        r_max, outcome):
    space, _act, mu = presets.Instance(presets.spec(name)).build()
    sup = max(lhs for c in centers for _r, lhs, _rhs in check_weak_bg(
        space, mu, c, BGParams(r0, 2.0, 0.0), r_max).scan_rows)
    # with K = 0 every rhs is C: the sup row sits 1e-10 below it, inside
    # the margin band, or above it
    C, K = {VERIFIED: (2 * float(sup), 1.0),
            VIOLATED: ((1 + float(sup)) / 2, 0.0),
            INCONCLUSIVE: (float(sup) * (1 + 1e-10), 0.0)}[outcome]
    params = BGParams(r0, C, K)
    singles = [check_weak_bg(space, mu, c, params, r_max) for c in centers]
    cert = check_weak_bg(space, mu, centers, params, r_max)
    assert cert.status == outcome
    assert (cert.center, cert.params, cert.r_min, cert.r_max) == (
        "all sampled", params, r0, r_max)
    assert _certificate_fields(cert) == _merged_fields(singles)
    # the rows are the single-center rows, read on one tick scale
    assert cert.step == math.lcm(*(c.step for c in singles))
    assert cert.scan_rows == [row for c in singles for row in c.scan_rows]
    assert check_weak_bg(space, mu, tuple(centers), params, r_max) == cert


def test_center_list_refusals():
    space, mu = lattice_setup()
    with pytest.raises(DomainError, match="no centers to scan"):
        check_weak_bg(space, mu, [], BGParams(1, 8.0, 1.0), 4)
    # every profile is built before the scan: a refused profile at a later
    # center is reported before an empty ball at an earlier one
    gl, gmu, _tip = glued_setup()
    params = BGParams(Fraction(1, 2), 4.0, 1.0)
    with pytest.raises(DomainError, match="zero mass ball at radius 1/2"):
        check_weak_bg(gl, gmu, [gl.base(0), gl.tip(0)], params, 1)
    with pytest.raises(WindowError, match="safe window 1/2"):
        check_weak_bg(gl, gmu, [gl.base(0), gl.tip(60)], params, 1)


def test_scans_refuse_an_empty_denominator_ball():
    # no mass within distance 2 of the center: the ball of radius 1 is empty
    space, _mu = lattice_setup()
    mu = VertexMeasure(weight_fn=lambda p: int(abs(p[0]) + abs(p[1]) >= 2))
    with pytest.raises(DomainError, match="zero mass ball at radius 1 with"):
        check_weak_bg(space, mu, (0, 0), BGParams(1, 4.0, 1.0), 3)
    with pytest.raises(DomainError, match="zero-mass ball inside the scan"):
        min_exponent(space, mu, (0, 0), 1, 4.0, 3)
    with pytest.raises(DomainError, match="zero-mass ball inside the doubl"):
        doubling_constant(space, mu, (0, 0), 2)


def _fraction_min_exponent(dists, cum, r0, C, r_max):
    best = 0.0
    for radius, lhs, _form in _fraction_critical_checks(dists, cum, r0, r_max):
        if lhs > 1:
            k = (log_of_rational(lhs) - math.log(C)) / float(radius)
            best = max(best, k)
    return best if best > 1e-6 else 0.0


def _fraction_doubling_constant(dists, cum, r0):
    best, best_r = None, None
    for radius, lhs, _form in _fraction_critical_checks(dists, cum, r0 / 2,
                                                        5 * r0 / 2):
        if best is None or lhs > best:
            best, best_r = lhs, radius
    return best, best_r


@scan_cases
def test_scan_callers_match_fraction_formulas(setup, lo, hi):
    space, mu, x = setup()
    dists, cum = _raw_profile(space, mu, x, 2 * hi)
    for C in (1.5, 2.0, 4.0):
        assert (min_exponent(space, mu, x, lo, C, hi)
                == _fraction_min_exponent(dists, cum, lo, C, hi))
    sup, where = doubling_constant(space, mu, x, 2 * hi / 5)
    assert type(sup) is Fraction and type(where) is Fraction
    assert (sup, where) == _fraction_doubling_constant(dists, cum, 2 * hi / 5)


# -- the pruned scans against the Fraction oracles, on random profiles --------


class _Served:
    """A measure that serves prebuilt profiles by center, so random profiles
    reach the scans through `check_weak_bg`, `check_bg_synthetic` and
    `min_exponent` as a measure's would."""

    def __init__(self, profiles):
        self.profiles = profiles

    def profile(self, _space, center, upto):
        profile = self.profiles[center]
        assert profile.upto == upto
        return profile


def _random_raw(rng, upto):
    """Random (distance, mass) rows within upto, some masses zero and the
    center's mass sometimes missing, so that the first balls are empty,
    with the sorted distances and cumulative masses tallied from them by
    hand."""
    dens = rng.choice([(1,), (1, 2), (1, 3, 4), (2, 5, 10)])
    rows = [] if rng.random() < 0.3 else [(Fraction(0), Fraction(
        rng.randint(1, 3)))]
    for _ in range(rng.randint(1, 14)):
        den = rng.choice(dens)
        rows.append((Fraction(rng.randint(1, int(upto * den)), den),
                     Fraction(rng.randint(0, 6), rng.choice((1, 1, 2, 3)))))
    tally = {}
    for d, m in rows:
        tally[d] = tally.get(d, 0) + m
    dists = sorted(d for d, m in tally.items() if m)
    cum = [sum(tally[e] for e in dists[:n + 1]) for n in range(len(dists))]
    return rows, dists, cum


def _random_lo(rng, dists, hi):
    """lo in (0, hi]: hi itself, a breakpoint or half of one, or a rational
    that is neither."""
    critical = [r for d in dists for r in (d, d / 2) if 0 < r <= hi]
    pick = rng.random()
    if pick < 0.15:
        return hi
    if pick < 0.55 and critical:
        return rng.choice(critical)
    return hi * Fraction(rng.randint(1, 96), 97)


def _visited_rhs(raws, checks, lo, hi, factor, exponent):
    """The rhs of each radius the scan visits, in order, from the Fraction
    rows `checks` of each raw profile.  Per profile: lo's own rows when lo
    is no critical radius, then, when the exponent is 0 or at least 2^-40
    of the profile's tick (twice the lcm of its distance denominators) and
    the rhs at hi is a finite double, each row whose exact lhs passes every
    earlier critical row's, up to the first violation, and every row from
    there on."""
    try:
        bounded = math.isfinite(factor * math.exp(exponent * float(hi)))
    except OverflowError:
        bounded = False
    out, last = [], None
    for (dists, _cum), rows in zip(raws, checks):
        tick = 2 * math.lcm(*(d.denominator for d in dists))
        prune = bounded and (exponent == 0 or exponent * 2 ** 40 >= tick)
        own = 0 if lo in dists or 2 * lo in dists else 1 + (lo < hi)
        top = None
        for n, (r, lhs, _form) in enumerate(rows):
            visit = n < own or not prune or top is None or lhs > top
            if n >= own and (top is None or lhs > top):
                top = lhs
            if visit:
                rhs = factor * math.exp(exponent * float(r))
                if r != last:
                    out.append(rhs)
                    last = r
                if verdict(lhs, rhs) == VIOLATED:
                    prune = False
    return out


def _near_band_factors(rng, checks, exponent):
    """Factors C > 1 at relative offsets 1e-5 .. 1e-14 from the band edges
    of the largest and of a random lhs above 1, at their radii."""
    rows = [(r, lhs) for rows in checks for r, lhs, _form in rows if lhs > 1]
    if not rows:
        return [1.5, 3.0]
    out = []
    for r, lhs in (max(rows, key=lambda row: row[1]), rng.choice(rows)):
        for edge in (1 + MARGIN, 1 - MARGIN):
            at = float(lhs) / edge / math.exp(exponent * float(r))
            for sign in (1, -1):
                C = at * (1 + sign * 10.0 ** -rng.randint(5, 14))
                if C > 1:
                    out.append(C)
    return out


def test_pruned_scans_match_the_fraction_oracles(monkeypatch):
    # random profiles, one to three centers, lo on and off the critical
    # radii, C next to the band edges, K = 0, K at and just below the 2^-40
    # guard, K far below it and K ordinary: every field of the certificate
    # and every min_exponent bit is the oracle's, the rows visited are the
    # ones that can bind, and the pointers are the next larger ones
    seen = []
    band = curvature.band

    def recorded(rhs):
        seen.append(rhs)
        return band(rhs)

    monkeypatch.setattr(curvature, "band", recorded)
    rng = random.Random(36)
    statuses = set()
    for _ in range(50):
        hi = Fraction(rng.randint(2, 24), rng.choice((1, 2, 3)))
        raws, profiles = [], {}
        for center in range(rng.choice((1, 1, 2, 3))):
            rows, dists, cum = _random_raw(rng, 2 * hi)
            raws.append((dists, cum))
            profiles[center] = DistanceProfile(rows, 2 * hi)
        served = _Served(profiles)
        centers = list(profiles) if len(profiles) > 1 else 0
        lo = _random_lo(rng, raws[0][0], hi)
        checks = [list(_fraction_critical_checks(dists, cum, lo, hi))
                  for dists, cum in raws]
        empty = [rows[0][1] is None for rows in checks]
        if any(empty):
            # the first empty ball is refused, whatever the bound
            with pytest.raises(DomainError, match=(
                    f"^zero mass ball at radius {fmt_rational(lo)} ")):
                check_weak_bg(None, served, centers, BGParams(lo, 2.0, 1.0),
                              hi)
        else:
            tick = 2 * math.lcm(*(d.denominator for d in raws[0][0]))
            guard = tick * 2.0 ** -40
            for K in (0.0, guard, math.nextafter(guard, 0), 1e-18,
                      rng.uniform(0.05, 1.5)):
                for C in _near_band_factors(rng, checks, K):
                    seen.clear()
                    cert = check_weak_bg(None, served, centers,
                                         BGParams(lo, C, K), hi)
                    assert seen == _visited_rhs(raws, checks, lo, hi, C, K)
                    assert _certificate_fields(cert) == _fraction_scan(
                        raws, lo, hi, C, K), (lo, hi, C, K)
                    statuses.add(cert.status)
        for center, (dists, cum) in enumerate(raws):
            if empty[center]:
                with pytest.raises(DomainError, match="zero-mass ball inside"):
                    min_exponent(None, served, center, lo, 2.0, hi)
                continue
            for C in (1.0001, 1.5, 3.0, rng.uniform(1, 8)):
                assert (min_exponent(None, served, center, lo, C, hi)
                        == _fraction_min_exponent(dists, cum, lo, C, hi))
            # a synthetic scale N/K of two floats has a denominator near 2^52
            K = rng.uniform(0.3, 2)
            params = SyntheticParams(K * rng.uniform(0.1, float(hi)), K)
            if dists[0] < params.scale <= hi:
                cert = check_bg_synthetic(None, served, center, params, hi)
                assert _certificate_fields(cert) == _fraction_scan(
                    [(dists, cum)], params.scale, hi, 2.0 ** params.N, K)
        for profile in profiles.values():
            pairs = [pair for row in profile.critical_table()[2]
                     for pair in (row[1:3], row[3:])]
            nxt, lds, ld_nxt = curvature._chains(profile)
            for s, (num, den) in enumerate(pairs):
                assert lds[s] == (log_of_rational(Fraction(num, den))
                                  if den and num > den else -math.inf)
                assert ld_nxt[s] == next((t for t in range(s + 1, len(pairs))
                                          if lds[t] > lds[s]), len(pairs))
                if den:
                    assert nxt[s] == next(
                        (t for t in range(s + 1, len(pairs))
                         if pairs[t][0] * den > num * pairs[t][1]), len(pairs))
    assert statuses == {VERIFIED, INCONCLUSIVE, VIOLATED}
