"""Concentric-ball growth certificates: synthetic condition, weak/strong
inequalities, doubling constants, and the conversion formulas between them.

The checked inequality is always

    mass(B(x, 2r)) / mass(B(x, r)) <= factor * exp(exponent * r)

over a radius interval.  On discrete supports both ball masses are
piecewise constant in r, so the scan evaluates only at *critical radii*:
each profile breakpoint a (a support distance or half of one) contributes
two checks, the ratio exactly at r = a (strict masses) and the limiting
ratio just after a (closed masses, still compared against the right-hand
side at a); together these decide the inequality on the whole continuum.
Left-hand sides stay exact, as int (num, den) mass pairs that become
Fractions only where a certificate reports them; right-hand sides are
floats guarded by the verdict margin from `exact`, one `math.exp` and one
`exact.band` per radius, whose two edges decide both rows of the radius.
The scan keeps no rows: it decides status, counts, witnesses and notes in
its one loop, and a certificate rebuilds its rows on first read.

A profile builds the table of its critical radii up to half its radius
once (`DistanceProfile.critical_table`), and a scan on [lo, hi] is two
bisects into it, plus lo when lo is no critical radius; a scan whose 2 hi
passes the profile's radius is refused, never read past it.  With the
measure's one-profile memo, every scan of one (measure, center, radius) —
the weak and synthetic scans, `min_exponent` and `doubling_constant` —
reads one profile and one table, with the same rows, radii and report
bytes as a scan that derived them afresh.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .exact import (DomainError, INCONCLUSIVE, VERIFIED, VIOLATED, band,
                    field, fmt_rational, rational, record, verdict)
from .measures import DistanceProfile, Measure
from .measures import ball_mass  # noqa: F401  (perfbench/trace.py wraps it here)


@record(frozen=True)
class BGParams:
    """Weak inequality parameters: scale r0, factor C > 1, exponent K >= 0."""
    r0: Fraction
    C: float
    K: float

    def __post_init__(self):
        object.__setattr__(self, "r0", rational(self.r0))
        if self.r0 <= 0:
            raise DomainError("scale r0 must be positive")
        if not (self.C > 1 and math.isfinite(self.C)):
            raise DomainError("factor C must be finite and > 1")
        if not (self.K >= 0 and math.isfinite(self.K)):
            raise DomainError("exponent K must be finite and >= 0")


@record(frozen=True)
class SyntheticParams:
    """Dimension-style parameters (N, K), both positive; scale is N/K."""
    N: float
    K: float

    def __post_init__(self):
        if not (self.N > 0 and math.isfinite(self.N)):
            raise DomainError("dimension N must be finite and positive")
        if not (self.K > 0 and math.isfinite(self.K)):
            raise DomainError("exponent K must be finite and positive "
                              "(the N/K threshold degenerates at 0)")

    @functools.cached_property
    def scale(self) -> Fraction:
        """N/K, computed once per instance; not a field, so equality, hashing
        and `_fields` see only N and K."""
        return rational(self.N) / rational(self.K)


@record
class Violation:
    radius: Fraction
    lhs: Fraction
    rhs: float
    form: str               # "at" for the exact radius, "above" for the limit


@record
class Certificate:
    params: object
    center: object
    r_min: Fraction
    r_max: Fraction
    status: str
    witness: Violation | None = None
    first_violation: Violation | None = None
    critical_radii_checked: int = 0
    violations: int = 0
    notes: list = field(default_factory=list)
    step: int = 1                                # tick scale of `rows`
    # what `rows` is rebuilt from, set by the scan; not fields, so `==`,
    # `repr` and `_fields` do not see them
    _profiles = ()
    _factor = _exponent = 0.0

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    @functools.cached_property
    def rows(self) -> list:
        """(a, num, den, rhs) for every checked critical radius, profile by
        profile, built on first read: the scan that decided the certificate
        keeps no rows.  They come from the same `_critical_checks` and the
        same `math.exp` of the same a / step as the scan's, so every int and
        float is the one the scan compared."""
        step, factor, exponent = self.step, self._factor, self._exponent
        rows = []
        last = None
        for profile in self._profiles:
            for a, num, den, _form in _critical_checks(
                    profile, self.r_min, self.r_max, step)[1]:
                if a != last:
                    rhs = factor * math.exp(exponent * (a / step))
                    last = a
                rows.append((a, num, den, rhs))
        return rows

    @property
    def scan_rows(self) -> list:
        """(radius, lhs, rhs) for every checked critical radius, with the
        radius a/step and the lhs num/den built as Fractions here."""
        step = self.step
        return [(Fraction(a, step), Fraction(num, den), rhs)
                for a, num, den, rhs in self.rows]


@record
class PairCheck:
    """One concentric ratio (or count) at radii (r, R) against a float bound.

    `holds` is None when the pair was skipped or its lhs falls inside the
    margin band; `note` says which.
    """
    r: Fraction
    R: Fraction
    formula: str
    lhs: Fraction | int | None
    rhs: float | None
    holds: bool | None
    note: str = ""


def pair_check(r, R, formula, lhs, rhs) -> PairCheck:
    """The record of lhs <= rhs for one pair, decided by `exact.verdict`."""
    status = verdict(lhs, rhs)
    if status == INCONCLUSIVE:
        return PairCheck(r, R, formula, lhs, rhs, None,
                         note="inside the float margin band")
    return PairCheck(r, R, formula, lhs, rhs, status == VERIFIED)


def _critical_checks(profile: DistanceProfile, lo: Fraction, hi: Fraction,
                     step: int | None = None):
    """The tick scale `step` and the rows (a, num, den, form) deciding the
    inequality on [lo, hi], all ints but the form: the radius is a/step and
    the lhs num/den, with den == 0 when the denominator ball is empty.

    'at': ratio of strict masses at the radius itself.
    'above': ratio of closed masses, the constant value on the interval just
    right of the radius, whose binding comparison point is the radius.

    The radii are lo and the profile's critical radii in [lo, hi], read from
    its one `critical_table()` by two bisects, one at each end, and
    rescaled to ticks of 1/step, by default S = 2 lcm(profile scale, lo and
    hi denominators), on which lo, hi and every critical radius are whole
    ticks; a given step is a multiple of S.  num and den are masses on the
    profile's one mass scale; callers build a Fraction only for what they
    report.  WindowError, the profile's own, when 2 hi passes its radius.
    """
    if step is None:
        step = 2 * math.lcm(profile.scale, lo.denominator, hi.denominator)
    low = lo.numerator * (step // lo.denominator)
    high = hi.numerator * (step // hi.denominator)
    upto = profile.upto
    if 2 * high * upto.denominator > upto.numerator * step:
        profile._check(2 * hi)
    tick, radii, table = profile.critical_table()
    k = step // tick
    i = bisect_left(radii, -(-low // k))
    j = bisect_right(radii, high // k)
    rows = []
    if i >= j or radii[i] * k != low:
        # lo is no critical radius, so its open and closed balls agree
        num = profile._total(profile._count_lt(2 * lo))
        den = profile._total(profile._count_lt(lo))
        rows.append((low, num, den, "at"))
        if low < high:
            rows.append((low, num, den, "above"))
    for a, lt_2a, lt_a, le_2a, le_a in table[i:j]:
        a *= k
        rows.append((a, lt_2a, lt_a, "at"))
        if a < high:
            rows.append((a, le_2a, le_a, "above"))
    return step, rows


def _scan(profiles, lo: Fraction, hi: Fraction, factor: float,
          exponent: float, params, center) -> Certificate:
    """Decide the inequality at every critical radius of [lo, hi] for the
    profile of each center in turn, in one loop, on the one tick scale
    2 lcm(every profile's scale, lo and hi denominators): a single profile
    keeps the step and rows of its `_critical_checks`.  Each center notes
    its first row inside the margin band.

    The loop keeps no rows; `Certificate.rows` rebuilds them on first read.
    Each radius takes its rhs and the two edges of `exact.band(rhs)` once,
    for its 'at' and 'above' rows, and each lhs num / den is compared with
    them by `exact.verdict`'s rule.  Int true division is correctly
    rounded, as `Fraction.__float__` is, and so is a / step, so the floats
    compared are those of the exact rationals.  Fractions are built only
    for what the certificate reports: witnesses, notes and errors.
    """
    if hi < lo:
        raise DomainError(
            f"r_max {fmt_rational(hi)} below the scale {fmt_rational(lo)}")
    step = math.lcm(lo.denominator, hi.denominator)
    for profile in profiles:
        step = math.lcm(step, profile.scale)
    step *= 2
    cert = Certificate(params=params, center=center, r_min=lo, r_max=hi,
                       status=VERIFIED, step=step)
    cert._profiles, cert._factor, cert._exponent = profiles, factor, exponent
    first = worst = None
    last = None
    checked = violations = 0
    for profile in profiles:
        noted = False
        checks = _critical_checks(profile, lo, hi, step)[1]
        checked += len(checks)
        for a, num, den, form in checks:
            if not den:
                radius = fmt_rational(Fraction(a, step))
                raise DomainError(
                    f"zero mass ball at radius {radius} with mass above it: "
                    "the 0 < mass hypothesis fails on this range")
            if a != last:    # the 'at' and 'above' rows share their rhs
                rhs = factor * math.exp(exponent * (a / step))
                verified, violated = band(rhs)
                last = a
            lhs = num / den
            if lhs >= violated:
                violations += 1
                if first is None:
                    first = worst = (a, num, den, rhs, form)
                # the largest lhs wins, and the larger radius among equal ones
                elif (num * worst[2], a) > (worst[1] * den, worst[0]):
                    worst = (a, num, den, rhs, form)
            elif lhs > verified and not noted:
                noted = True
                cert.status = INCONCLUSIVE
                cert.notes.append(f"ratio at {fmt_rational(Fraction(a, step))}"
                                  " inside the float margin band")
    cert.critical_radii_checked = checked
    cert.violations = violations
    if worst is not None:
        cert.status = VIOLATED
        cert.first_violation = _violation(step, *first)
        cert.witness = _violation(step, *worst)
    return cert


def _violation(step, a, num, den, rhs, form) -> Violation:
    return Violation(radius=Fraction(a, step), lhs=Fraction(num, den),
                     rhs=rhs, form=form)


def check_weak_bg(space, measure: Measure, center, params: BGParams,
                  r_max) -> Certificate:
    """Scan the weak inequality at scale r0 on [r0, r_max] for one center,
    or in one pass for every center of a list or tuple of them, whose
    certificate has the center "all sampled" and every center's rows in
    center order."""
    r_max = rational(r_max)
    if isinstance(center, (list, tuple)) and not _is_single_point(space, center):
        if not center:
            raise DomainError("no centers to scan")
        profiles = [measure.profile(space, c, 2 * r_max) for c in center]
        center = "all sampled"
    else:
        profiles = [measure.profile(space, center, 2 * r_max)]
    return _scan(profiles, params.r0, r_max, params.C, params.K, params, center)


def check_bg_synthetic(space, measure: Measure, center, params: SyntheticParams,
                       r_max) -> Certificate:
    """Scan the dimension-style condition on [N/K, r_max]."""
    r_max = rational(r_max)
    if r_max < params.scale:
        raise DomainError(
            f"r_max {fmt_rational(r_max)} is below the threshold N/K = "
            f"{fmt_rational(params.scale)}")
    profile = measure.profile(space, center, 2 * r_max)
    return _scan([profile], params.scale, r_max, 2.0 ** params.N, params.K,
                 params, center)


def _is_single_point(space, candidate):
    try:
        return space.is_point(candidate)
    except Exception:
        return False


def min_exponent(space, measure: Measure, x, r0, C, r_max) -> float:
    """Smallest K >= 0 making the weak inequality hold on [r0, r_max].

    Exact up to float rounding: K* is the max over critical radii of
    (ln lhs - ln C) / r, clamped at zero, and 0 when it is at most 1e-6;
    callers should pad by that much before re-certifying to stay clear of
    the margin band.
    """
    r0, r_max = rational(r0), rational(r_max)
    if not (C > 1 and math.isfinite(C)):
        raise DomainError("factor C must be finite and > 1")
    profile = measure.profile(space, x, 2 * r_max)
    ln_c = math.log(C)
    best = 0.0
    step, rows = _critical_checks(profile, r0, r_max)
    for a, num, den, _form in rows:
        if not den:
            raise DomainError("zero-mass ball inside the scan range")
        if num > den:
            # the logs of the reduced terms, as `log_of_rational` takes them
            g = math.gcd(num, den)
            k = (math.log(num // g) - math.log(den // g) - ln_c) / (a / step)
            best = max(best, k)
    return best if best > 1e-6 else 0.0


def weak_to_synthetic(params: BGParams) -> SyntheticParams:
    """(r0, C, K) -> (N', K) with N' = max(K r0, ln C / ln 2); needs K > 0."""
    if params.K <= 0:
        raise DomainError("conversion needs K > 0; perturb K upward first")
    n_prime = max(params.K * float(params.r0), math.log(params.C) / math.log(2.0))
    return SyntheticParams(N=n_prime, K=params.K)


def synthetic_to_weak(params: SyntheticParams) -> BGParams:
    """(N, K) -> weak parameters (r0 = N/K, C = 2^N, K)."""
    return BGParams(r0=params.scale, C=2.0 ** params.N, K=params.K)


def classic_ratio_bound(r, R, params) -> float:
    """Ratio bound mass(B(x,R))/mass(B(x,r)) for r below R, classical form."""
    r, R = rational(r), rational(R)
    if isinstance(params, BGParams):
        if not (params.r0 <= r < R):
            raise DomainError("need r0 <= r < R")
        expo = math.log(params.C) / math.log(2.0)
        return params.C * float(R / r) ** expo * math.exp(params.K * float(R))
    if isinstance(params, SyntheticParams):
        if not (params.scale <= r < R):
            raise DomainError("need N/K <= r < R")
        return (2.0 ** params.N * float(R / r) ** params.N
                * math.exp(params.K * float(R)))
    raise DomainError("params must be weak or synthetic")


def check_classic_bound(space, measure: Measure, x, params, certificate,
                        pairs) -> list:
    """Measured mass ratios against the classical-form bound for (r, R) pairs.

    Requires a verified certificate for `params` at `x` (or over all
    sampled centers) whose range covers the largest R sampled.
    """
    if certificate is None or not certificate.verified:
        raise DomainError("check_classic_bound needs a verified certificate")
    if certificate.params != params:
        raise DomainError("the certificate was verified for other parameters")
    if certificate.center not in (x, "all sampled"):
        raise DomainError("the certificate was verified at another center")
    pairs = [(rational(r), rational(R)) for r, R in pairs]
    if not pairs:
        return []
    top = max(R for _r, R in pairs)
    if certificate.r_max < top:
        raise DomainError(
            f"certificate verified only to {fmt_rational(certificate.r_max)}, "
            f"pairs reach {fmt_rational(top)}")
    profile = measure.profile(space, x, top)
    out = []
    for r, R in pairs:
        if not r < R:
            raise DomainError(f"need r < R, got ({fmt_rational(r)}, {fmt_rational(R)})")
        out.append(pair_check(r, R, "classic", profile.ratio(R, r),
                              classic_ratio_bound(r, R, params)))
    return out


def doubling_constant(space, measure: Measure, x, r0) -> tuple:
    """Exact sup of the concentric ratio over radii in [r0/2, 5 r0/2].

    Returns (sup as Fraction, radius attaining it).
    """
    r0 = rational(r0)
    lo, hi = r0 / 2, 5 * r0 / 2
    profile = measure.profile(space, x, 2 * hi)
    step, rows = _critical_checks(profile, lo, hi)
    best = None
    for a, num, den, _form in rows:
        if not den:
            raise DomainError("zero-mass ball inside the doubling range")
        if best is None or num * best[2] > best[1] * den:
            best = (a, num, den)
    a, num, den = best
    return Fraction(num, den), Fraction(a, step)

