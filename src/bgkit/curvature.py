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
its one loop, and a certificate builds its one row view, `scan_rows`, on
first read.  A ratio or a right-hand side past the double range is
refused, never compared or reported as infinity.

A profile builds the table of its critical radii up to half its radius
once (`DistanceProfile.critical_table`), and a scan on [lo, hi] is two
bisects into it, plus lo when lo is no critical radius; a scan whose 2 hi
passes the profile's radius is refused, never read past it.  With the
measure's one-profile memo, every scan of one (measure, center, radius) —
the weak and synthetic scans, `min_exponent` and `doubling_constant` —
reads one profile and one table, with the same rows, radii and report
bytes as a scan that derived them afresh.

A scan decides every row in range but visits only those that can bind:
the rhs and both band edges grow with r, so a row whose lhs is at most an
earlier visited row's can make a scan neither inconclusive nor violated.
Up to a profile's first violation it follows pointers to the next larger
lhs (`min_exponent` follows its own chain), and it steps row by row from
there on and wherever a premise fails.  lo's rows prune nothing.  The
exponent is 0 or at least 2^-40 of the table's tick: table radii are
1/tick apart or more, and above that bound exp(K r) grows between them
far more than `math.exp` errs (an error bound is documented, not
monotonicity).  And factor exp(exponent hi) is a finite double, so an
overflow refusal names the first radius past the range.
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
        if self.N >= 1024:
            raise DomainError(f"dimension N = {self.N!r} puts the factor 2^N "
                              "past the double range: N must be below 1024")
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
    step: int = 1                           # tick scale of the scan
    # what `scan_rows` is rebuilt from, set by the scan; not fields, so
    # `==`, `repr` and `_fields` do not see them
    _profiles = ()
    _factor = _exponent = 0.0

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    @functools.cached_property
    def scan_rows(self) -> list:
        """(radius, lhs, rhs) for every checked critical radius, profile by
        profile, built on first read: the scan that decided the certificate
        keeps no rows.  a/step, num/den and the rhs come from the same
        `_critical_checks` and `math.exp` calls as the scan's."""
        step, factor, exponent = self.step, self._factor, self._exponent
        rows = []
        last = None
        for profile in self._profiles:
            for a, num, den, _form in _critical_checks(
                    profile, self.r_min, self.r_max, step)[1]:
                if a != last:
                    rhs = factor * math.exp(exponent * (a / step))
                    last = a
                rows.append((Fraction(a, step), Fraction(num, den), rhs))
        return rows


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


def _tick_scale(profiles, lo: Fraction, hi: Fraction) -> int:
    """2 lcm(lo and hi denominators, every profile's scale), on which lo, hi
    and every profile's critical radii are whole ticks."""
    return 2 * math.lcm(lo.denominator, hi.denominator,
                        *(profile.scale for profile in profiles))


def _table_range(profile: DistanceProfile, lo: Fraction, hi: Fraction,
                 step: int | None = None):
    """(step, low, high, k, i, j, end, lo_row): [lo, hi] in the profile's
    one `critical_table()`.  lo and hi are low and high ticks of 1/step, by
    default the profile's `_tick_scale` S, and a given step is a multiple
    of S; a table radius a is a k ticks; its rows i to j, two bisects, are
    the critical radii in [lo, hi]; lo_row is the (num, den) of lo when lo
    is no critical radius, else None.  In the row sequence, 2t is table row
    t's 'at' row and 2t + 1 its 'above' row, 2i - 2 and 2i - 1 are lo's
    rows, and `end` leaves out the 'above' row of a last radius equal to
    hi.  WindowError, the profile's own, when 2 hi passes its radius.
    """
    if step is None:
        step = _tick_scale([profile], lo, hi)
    low = lo.numerator * (step // lo.denominator)
    high = hi.numerator * (step // hi.denominator)
    upto = profile.upto
    if 2 * high * upto.denominator > upto.numerator * step:
        profile._check(2 * hi)
    tick, radii, _table = profile.critical_table()
    k = step // tick
    i = bisect_left(radii, -(-low // k))
    j = bisect_right(radii, high // k)
    lo_row = None
    if i >= j or radii[i] * k != low:
        # lo is no critical radius, so its open and closed balls agree
        lo_row = (profile._total(profile._count_lt(2 * lo)),
                  profile._total(profile._count_lt(lo)))
    end = 2 * j - ((radii[j - 1] * k if j > i else low) == high)
    return step, low, high, k, i, j, end, lo_row


def _critical_checks(profile: DistanceProfile, lo: Fraction, hi: Fraction,
                     step: int | None = None):
    """The tick scale `step` and the rows (a, num, den, form) deciding the
    inequality on [lo, hi], all ints but the form: the radius is a/step and
    the lhs num/den, with den == 0 when the denominator ball is empty.
    'at' is the ratio of open balls at the radius, 'above' that of closed
    balls, the ratio just right of the radius, checked at the radius.  The
    radii are lo and the critical radii of `_table_range`, and num and den
    masses on the profile's one mass scale.
    """
    step, low, high, k, i, j, _end, lo_row = _table_range(profile, lo, hi,
                                                          step)
    rows = []
    if lo_row:
        rows.append((low, *lo_row, "at"))
        if low < high:
            rows.append((low, *lo_row, "above"))
    for a, lt_2a, lt_a, le_2a, le_a in profile.critical_table()[2][i:j]:
        a *= k
        rows.append((a, lt_2a, lt_a, "at"))
        if a < high:
            rows.append((a, le_2a, le_a, "above"))
    return step, rows


def _log_ratio(num: int, den: int) -> float:
    """ln(num/den) from the logs of the reduced terms, as `log_of_rational`
    takes them, when num > den > 0, and -inf otherwise."""
    if not 0 < den < num:
        return -math.inf
    g = math.gcd(num, den)
    return math.log(num // g) - math.log(den // g)


def _next_greater(keys) -> list:
    """nxt[s]: the first t > s with keys[t] > keys[s], else len(keys)."""
    nxt, stack = [len(keys)] * len(keys), []
    for s in reversed(range(len(keys))):
        while stack and keys[stack[-1]] <= keys[s]:
            stack.pop()
        if stack:
            nxt[s] = stack[-1]
        stack.append(s)
    return nxt


def _chains(profile: DistanceProfile) -> tuple:
    """(nxt, lds, ld_nxt) over the rows of the profile's whole critical
    table, built once and kept on the profile: the `_next_greater` of the
    exact lhs, each row's `_log_ratio`, and its `_next_greater`.  Rows with
    an empty denominator ball come first, and a pointer reads only later
    rows, so their keys steer no pointer that a scan follows."""
    if profile._chains is None:
        pairs = [pair for row in profile.critical_table()[2]
                 for pair in (row[1:3], row[3:])]
        lds = [_log_ratio(num, den) for num, den in pairs]
        profile._chains = (_next_greater([Fraction(num, den) if den else 0
                                          for num, den in pairs]),
                           lds, _next_greater(lds))
    return profile._chains


def _scan(profiles, lo: Fraction, hi: Fraction, factor: float,
          exponent: float, params, center) -> Certificate:
    """Decide the inequality at every critical radius of [lo, hi] for the
    profile of each center in turn, in one loop, on the `_tick_scale` of
    every profile: a single profile keeps the step and rows of its
    `_critical_checks`.  Each center notes its first row inside the margin
    band.

    The loop keeps no rows; `Certificate.scan_rows` rebuilds them on first
    read.  It visits lo's rows, follows the `_chains` pointers up to the
    profile's first violation and visits every row from there on, or
    throughout when a premise of the module docstring fails, so its counts
    and witnesses are those of every row.  Each radius visited takes its
    rhs and the two edges of `exact.band(rhs)` once, for its 'at' and
    'above' rows, and each lhs num / den is compared with them by
    `exact.verdict`'s rule.  Int true division is correctly
    rounded, as `Fraction.__float__` is, and so is a / step, so the floats
    compared are those of the exact rationals.  Fractions are built only
    for what the certificate reports: witnesses, notes and errors.  A ratio
    or an rhs past the double range is refused with a DomainError, never
    compared as infinity: the rhs grows with the radius, as the exponent is
    never negative, so the last rhs of each profile is the one to check.
    Denominator masses never decrease along the rows, so only the first
    can be zero.
    """
    if hi < lo:
        raise DomainError(
            f"r_max {fmt_rational(hi)} below the scale {fmt_rational(lo)}")
    step = _tick_scale(profiles, lo, hi)
    cert = Certificate(params=params, center=center, r_min=lo, r_max=hi,
                       status=VERIFIED, step=step)
    cert._profiles, cert._factor, cert._exponent = profiles, factor, exponent
    try:
        bounded = math.isfinite(factor * math.exp(exponent * float(hi)))
    except OverflowError:
        bounded = False
    first = worst = None
    last = None
    checked = violations = 0
    for profile in profiles:
        _step, low, _high, k, i, _j, end, lo_row = _table_range(
            profile, lo, hi, step)
        tick, _radii, table = profile.critical_table()
        base = 2 * i
        s = base - 2 if lo_row else base
        checked += end - s
        if not (lo_row or table[i][1:3])[1]:
            raise DomainError(
                f"zero mass ball at radius {fmt_rational(lo)} with mass above "
                "it: the 0 < mass hypothesis fails on this range")
        nxt = (_chains(profile)[0] if bounded and (
            exponent == 0 or exponent * 2 ** 40 >= tick) else None)
        noted = False
        try:
            while s < end:
                if s < base:
                    a, (num, den) = low, lo_row
                else:
                    row = table[s >> 1]
                    a = row[0] * k
                    num, den = row[3:] if s & 1 else row[1:3]
                if a != last:    # the 'at' and 'above' rows share their rhs
                    rhs = factor * math.exp(exponent * (a / step))
                    verified, violated = band(rhs)
                    last = a
                lhs = num / den
                if lhs >= violated:
                    nxt = None
                    violations += 1
                    bad = (a, num, den, rhs, "above" if s & 1 else "at")
                    if first is None:
                        first = worst = bad
                    # the largest lhs wins, and the larger radius among
                    # equal ones
                    elif (num * worst[2], a) > (worst[1] * den, worst[0]):
                        worst = bad
                elif lhs > verified and not noted:
                    noted = True
                    cert.status = INCONCLUSIVE
                    cert.notes.append(
                        f"ratio at {fmt_rational(Fraction(a, step))}"
                        " inside the float margin band")
                # lo may lie 1/step below the next critical radius, closer
                # than the guard's tick, so its rows prune nothing
                s = nxt[s] if nxt and s >= base else s + 1
        except OverflowError:
            # `last` becomes a once the rhs at a is computed: math.exp
            # raised before that, num / den after it
            raise _past_double_range(a == last, Fraction(a, step), factor,
                                     exponent) from None
        if not math.isfinite(rhs):
            raise _past_double_range(False, Fraction(last, step), factor,
                                     exponent)
    cert.critical_radii_checked = checked
    cert.violations = violations
    if worst is not None:
        cert.status = VIOLATED
        cert.first_violation = _violation(step, *first)
        cert.witness = _violation(step, *worst)
    return cert


def _past_double_range(ratio, radius, factor, exponent) -> DomainError:
    """The refusal of a scan row whose ratio (or else rhs) at `radius` passes
    the double range, with the bound factor exp(exponent r) it checks."""
    bound = f"the bound {factor!r} exp({exponent!r} r)"
    at = f"at radius {fmt_rational(radius)}"
    return DomainError(
        f"the ratio {at} passes the double range, so {bound} cannot be "
        "checked against it" if ratio
        else f"{bound} cannot be evaluated in double precision {at}")


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
    the margin band.  After lo's rows it follows the `_chains` pointers to
    the next larger float ln lhs: a row s skipped after row m has ln lhs_s
    <= ln lhs_m and r_s >= r_m, so, rounding being monotone, its (ln lhs_s
    - ln C) / r_s is at most row m's when ln lhs_m >= ln C and below the
    running best of 0 otherwise, and the result keeps every bit.
    """
    r0, r_max = rational(r0), rational(r_max)
    if not (C > 1 and math.isfinite(C)):
        raise DomainError("factor C must be finite and > 1")
    profile = measure.profile(space, x, 2 * r_max)
    step, low, _high, _k, i, _j, end, lo_row = _table_range(profile, r0,
                                                            r_max)
    tick, _radii, table = profile.critical_table()
    if not (lo_row or table[i][1:3])[1]:
        raise DomainError("zero-mass ball inside the scan range")
    ln_c = math.log(C)
    best = 0.0
    if lo_row:
        best = max(best, (_log_ratio(*lo_row) - ln_c) / (low / step))
    _nxt, lds, nxt = _chains(profile)
    s = 2 * i
    while s < end:
        best = max(best, (lds[s] - ln_c) / (table[s >> 1][0] / tick))
        s = nxt[s]
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


# -- the certify-bg, synthetic, doubling and reproduce subcommands --------------


def _certificate_report(cert, params, label):
    from .reports import Report
    payload = {
        "status": cert.status,
        "r_min": cert.r_min, "r_max": cert.r_max,
        "critical_radii_checked": cert.critical_radii_checked,
        "violations": cert.violations,
        "center": cert.center,
        "notes": cert.notes,
        "ratio_scan": cert.scan_rows,
    }
    witnesses = [{"kind": kind, "radius": w.radius, "lhs": w.lhs,
                  "rhs": w.rhs, "form": w.form}
                 for kind, w in (("worst", cert.witness),
                                 ("first", cert.first_violation))
                 if w is not None]
    return Report(params=params, result=payload,
                  summary=f"{label}: {cert.status}", status=cert.status,
                  witnesses=witnesses)


def _certify_bg(args, inp):
    params = BGParams(rational(args.r0), args.C, args.K)
    if args.all_centers is None:
        centers = inp.point(args.center)
    elif args.center is not None:
        raise DomainError("--center and --all-centers both name the centers "
                          "to scan; give one of them")
    else:
        centers = [inp.point(raw) for raw in args.all_centers.split(";")]
    cert = check_weak_bg(inp.space, inp.measure, centers, params,
                         rational(args.rmax))
    return _certificate_report(
        cert, {"r0": params.r0, "C": params.C, "K": params.K,
               "rmax": rational(args.rmax)}, "certify-bg")


def _synthetic(args, inp):
    params = SyntheticParams(args.N, args.K)
    cert = check_bg_synthetic(inp.space, inp.measure, inp.point(args.center),
                              params, rational(args.rmax))
    return _certificate_report(
        cert, {"N": args.N, "K": args.K, "rmax": rational(args.rmax)},
        "synthetic")


def _doubling(args, inp):
    from .reports import Report
    sup, where = doubling_constant(inp.space, inp.measure,
                                   inp.point(args.center), rational(args.r0))
    try:
        c0 = float(sup)
    except OverflowError:
        raise DomainError(f"the doubling constant C0 at radius "
                          f"{fmt_rational(where)} passes the double range"
                          ) from None
    return Report(params={"r0": rational(args.r0)},
                  result={"C0": sup, "C0_float": c0, "attained_at": where},
                  summary=f"doubling: C0 = {c0:.6g} at r = {where}")


def _reproduce(args, _inp):
    from . import presets
    if args.scenario != "glued-line":
        raise DomainError(f"unknown scenario {args.scenario!r}")
    space, action, measure = presets.glued_line_instance(args.r0, args.eps)
    r0 = rational(args.r0)
    params = BGParams(r0, args.C, args.K)
    r_max = r0 + 4 * space.eps
    cert = check_weak_bg(space, measure, space.tip(0), params, r_max)
    out = _certificate_report(
        cert, {"scenario": args.scenario, "r0": r0, "eps": rational(args.eps),
               "C": args.C, "K": args.K}, f"reproduce {args.scenario}")
    # the scan's own profile, to 2 r_max, holds both balls
    profile = measure.profile(space, space.tip(0), 2 * r_max)
    radius = r0 + space.eps
    out.result["ball_at_r0_plus_eps"] = profile.mass_lt(radius)
    out.result["ball_at_doubled"] = profile.mass_lt(2 * radius)
    return out
