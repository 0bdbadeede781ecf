"""Measures on space supports: orbit counting, pull-backs, vertex weights.

A measure is a lazy view: it produces an exact *distance profile* (sorted
distances with cumulative masses) around a center, up to the space's safe
window and never past it.  Every ball mass, and every concentric ratio
of two of them, is a query on one `DistanceProfile`, which the curvature
scans read too.  A profile keeps its distances as int ticks on one int
scale (the lcm of their denominators) and its cumulative masses as ints
on one mass scale, so queries and scans compare ints; every distance and
mass it hands out is a Fraction.  Vertex measures build it from
enumerated support points, except the uniform one on a Cayley space: it
is left-invariant, so its profile at any center is the family's sphere
profile, built from the closed-form sphere sizes every family has and
refused past the enumeration budget as enumeration would be.
Counting measures of standard actions get it from the action,
analytically where the word metric allows, so ball masses of word-metric
balls stay exact far beyond anything enumerable.  A ratio of two ball
masses divides two int totals on the one mass scale, which cancels, into
one Fraction.

Every measure kind passes `spaces.check_ball`, the one gate of every ball
and orbit scan, in `Measure.profile`, once per build; a counting build
reaches the action's displacement profile only past it.  Its memo of the
last profile built is the one place that decides sharing: the scans of
one (measure, center, radius) share one, and so do all the centers of a
sandwich sup when the measure is the same at every center.  A profile
never changes (its ticks and totals are tuples), so it keeps one table of
its critical radii up to half its radius (`DistanceProfile.critical_table`)
that every scan reads; the table holds exactly the ints a scan would
derive afresh, so sharing it changes no report by a byte.  Beside it, a
profile holds the row pointers the curvature scans follow, which
`curvature` builds on a profile's first scan; a profile nobody scans, as
in a sandwich check, never builds them.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .exact import DomainError, WindowError, fmt_rational, rational
from . import spaces


class DistanceProfile:
    """Sorted distinct distances with exact cumulative masses.

    Built from (distance, mass) rows in any order: masses at one distance
    add up, and a distance whose total mass is zero is no breakpoint.
    Distances are stored as int `ticks` on one int `scale`, the lcm of the
    rows' distance denominators, so tick t is the distance t/scale.
    Cumulative masses are stored the same way, as int `totals` on
    `mass_scale`.  A radius query rounds r*scale up (open ball) or down
    (closed ball) and bisects the ticks, so it compares ints only; every
    distance and mass it returns is a Fraction.
    """

    def __init__(self, rows, upto):
        tally = {}
        for d, m in rows:
            tally[d] = tally.get(d, 0) + m
        tally = {d: m for d, m in tally.items() if m}
        # sets of denominators keep lcm's argument tuples short
        scale = math.lcm(*{d.denominator for d in tally})
        mass_scale = math.lcm(*{m.denominator for m in tally.values()})
        ticks, totals = [], []
        total = 0
        for t, m in sorted((d.numerator * (scale // d.denominator), m)
                           for d, m in tally.items()):
            total += m.numerator * (mass_scale // m.denominator)
            ticks.append(t)
            totals.append(total)
        self._set(scale, mass_scale, ticks, totals, upto)

    def _set(self, scale, mass_scale, ticks, totals, upto):
        """Every attribute, in one order for both constructors; ticks and
        totals become tuples, since one profile may serve many callers."""
        self.scale = scale
        self.mass_scale = mass_scale
        self.ticks = tuple(ticks)
        self.totals = tuple(totals)
        self.upto = rational(upto)
        self._table = None       # critical_table(), built on first use
        self._chains = None      # the scans' row pointers, built on first use

    @property
    def distances(self) -> list:
        """The breakpoint distances as Fractions, ascending."""
        return [Fraction(t, self.scale) for t in self.ticks]

    @property
    def cumulative(self) -> list:
        """The mass within each breakpoint distance, as Fractions."""
        return [Fraction(c, self.mass_scale) for c in self.totals]

    def _count_lt(self, r: Fraction) -> int:
        """The number of ticks below r: r*scale rounded up, bisected."""
        return bisect.bisect_left(
            self.ticks, -(-r.numerator * self.scale // r.denominator))

    def _count_le(self, r: Fraction) -> int:
        """The number of ticks at most r: r*scale rounded down, bisected."""
        return bisect.bisect_right(
            self.ticks, r.numerator * self.scale // r.denominator)

    def _total(self, idx) -> int:
        """The mass of the first idx ticks, on the mass scale."""
        return self.totals[idx - 1] if idx else 0

    def mass_lt(self, r) -> Fraction:
        """Total mass at distance strictly below r (open ball)."""
        r = rational(r)
        self._check(r)
        return Fraction(self._total(self._count_lt(r)), self.mass_scale)

    def mass_le(self, r) -> Fraction:
        """Total mass at distance at most r (closed ball)."""
        r = rational(r)
        self._check(r)
        return Fraction(self._total(self._count_le(r)), self.mass_scale)

    def ratio(self, big, small, closed=False) -> Fraction:
        """mass(B(c, big)) / mass(B(c, small)) at the profile's center: the
        numerator ball is closed only when asked, the denominator ball is
        always open.  DomainError when the denominator ball is empty.

        Both masses are int totals on the one mass scale, which cancels, so
        the ratio is one Fraction of two ints."""
        big = rational(big)
        self._check(big)
        small = rational(small)
        self._check(small)
        den = self._total(self._count_lt(small))
        if not den:
            raise DomainError(
                f"empty ball: the open ball of radius "
                f"{fmt_rational(small)} has zero mass")
        num = self._count_le(big) if closed else self._count_lt(big)
        return Fraction(self._total(num), den)

    def _check(self, r):
        if r > self.upto:
            raise WindowError(
                f"profile only exhaustive to {fmt_rational(self.upto)}, "
                f"asked for {fmt_rational(r)}",
                required=r, available=self.upto)

    def critical_table(self) -> tuple:
        """(step, radii, rows) for every critical radius a <= upto/2 of the
        concentric ratio: the breakpoints and the halves of breakpoints.

        Radii are int ticks of 1/step with step = 2 scale, so every
        breakpoint and every half of one is a whole tick.  The row of
        radius a is (a, open 2a, open a, closed 2a, closed a): the masses of
        those four balls, as ints on the mass scale.  Built once and kept: a
        profile never changes, so neither do its rows, and
        `curvature._critical_checks` only bisects them.
        """
        if self._table is not None:
            return self._table
        # a breakpoint tick t is the radius 2t on this step, its half is t
        high = self.upto.numerator * self.scale // self.upto.denominator
        ticks = [2 * t for t in self.ticks]
        radii = sorted({*ticks[:bisect.bisect_right(ticks, high)],
                        *self.ticks[:bisect.bisect_right(self.ticks, high)]})
        mass = (0, *self.totals)     # mass[i]: the mass of the first i ticks
        lt, le = bisect.bisect_left, bisect.bisect_right
        rows = tuple((a, mass[lt(ticks, 2 * a)], mass[lt(ticks, a)],
                      mass[le(ticks, 2 * a)], mass[le(ticks, a)])
                     for a in radii)
        self._table = 2 * self.scale, tuple(radii), rows
        return self._table


def sphere_profile(spheres, step, upto) -> DistanceProfile:
    """Profile of int sphere sizes at distances 0, step, 2*step, ... for an
    int step.  Its distances and masses are ints, so both scales are 1 and
    the ticks and totals are the nonzero sizes' distances and running sums:
    the same profile as `DistanceProfile` builds from these rows."""
    ticks, totals = [], []
    total = 0
    for i, size in enumerate(spheres):
        if size:
            total += size
            ticks.append(i * step)
            totals.append(total)
    profile = DistanceProfile.__new__(DistanceProfile)
    profile._set(1, 1, ticks, totals, upto)
    return profile


class Measure:
    """Base class; masses are nonnegative rationals."""

    _last = None         # (space, center, upto, profile) of the last build

    def profile(self, space, center, upto) -> DistanceProfile:
        """Exact profile of masses within `upto` of `center`, behind the one
        gate of every ball refusal, `spaces.check_ball`.  The last profile
        built is returned again for the same space object and an equal upto
        when the center is equal (it passed the gate when it was built), or
        when the measure is center-free on the space and the new center
        passes the gate.  Any other call builds a fresh one in its place; a
        refusal keeps nothing."""
        last = self._last
        same = last is not None and last[0] is space and last[2] == upto
        if same and last[1] == center:
            return last[3]
        upto = spaces.check_ball(space, center, upto)
        if same and self._center_free(space):
            return last[3]
        profile = self._build_profile(space, center, upto)
        self._last = (space, center, upto, profile)
        return profile

    def _build_profile(self, space, center, upto) -> DistanceProfile:
        """`profile`'s build, for a center and rational upto past its gate."""
        raise NotImplementedError

    def _center_free(self, space) -> bool:
        """Whether the profile is the same at every center of `space`."""
        return False


class VertexMeasure(Measure):
    """Unit (or explicitly weighted) mass on the space's own support points."""

    def __init__(self, weights=None, weight_fn=None):
        self.weights = dict(weights) if weights is not None else None
        self.weight_fn = weight_fn
        self.uniform = weights is None and weight_fn is None

    def mass(self, point) -> Fraction:
        if self.weight_fn is not None:
            m = rational(self.weight_fn(point))
        elif self.weights is not None:
            m = rational(self.weights.get(point, 0))
        else:
            return Fraction(1)
        if m < 0:
            raise DomainError(f"negative mass at {point!r}")
        return m

    def _build_profile(self, space, center, upto) -> DistanceProfile:
        if self._center_free(space):
            return sphere_profile(space.ball_spheres(upto, closed=True), 1,
                                  upto)
        return DistanceProfile(
            ((d, self.mass(p)) for p, d in
             space.ball(center, upto, closed=True)), upto)

    def _center_free(self, space) -> bool:
        """The uniform measure on a Cayley space is left-invariant: its
        profile at every center is the family's sphere profile."""
        return self.uniform and isinstance(space, spaces.CayleySpace)


class CountingOrbitMeasure(Measure):
    """Counting measure of the orbit of a basepoint, with multiplicity.

    mass(p) = #{g : g x0 = p}; for the free built-in actions this is the
    plain orbit counting measure.  Its profile is the action's
    displacement profile.
    """

    def __init__(self, action, basepoint):
        action.space.check_point(basepoint)
        self.action = action
        self.basepoint = basepoint

    def _build_profile(self, space, center, upto) -> DistanceProfile:
        if space is not self.action.space:
            raise DomainError("counting measure queried on a different space")
        return self.action.displacement_profile(self.basepoint, center, upto)

    def _center_free(self, space) -> bool:
        """Left translation is transitive on its own Cayley graph, so the
        orbit is every point and its profile is the sphere profile at
        every center."""
        return self.action.rule == "left_translation"


class PullbackMeasure(VertexMeasure):
    """Pull-back of a base-graph measure to a windowed universal cover.

    The mass of a lifted vertex is the mass of its projection, which makes
    the result deck-invariant by construction.
    """

    def __init__(self, cover_data, base_measure: Measure):
        super().__init__(weight_fn=lambda p: base_measure.mass(
            cover_data.project(p)))
        self.cover = cover_data
        self.base_measure = base_measure

    def _build_profile(self, space, center, upto) -> DistanceProfile:
        if space is not self.cover.space:
            raise DomainError("pull-back measure queried outside its cover")
        return super()._build_profile(space, center, upto)


def counting_measure(action, basepoint) -> CountingOrbitMeasure:
    return CountingOrbitMeasure(action, basepoint)


def ball_mass(measure: Measure, space, x, r, closed=False) -> Fraction:
    """Exact mass of the open (closed) ball; refusals as `Measure.profile`."""
    r = rational(r)
    profile = measure.profile(space, x, r)
    return profile.mass_le(r) if closed else profile.mass_lt(r)


def measure_from_spec(spec, space, action=None) -> Measure:
    """Measure from the "measure", "weights" and "basepoint" keys of a space
    file; see the schema notes in the README.  Weights keys and the
    basepoint are read as points of `space` by `spaces.read_point`."""
    kind = spec.get("measure", "vertex_uniform")
    if kind == "vertex_uniform":
        return VertexMeasure()
    if kind == "vertex_weights":
        return VertexMeasure(weights={spaces.read_point(k, space): rational(v)
                                      for k, v in spec["weights"].items()})
    if kind == "counting_orbit":
        if action is None:
            raise DomainError("counting_orbit measure needs an action")
        basepoint = spec.get("basepoint")
        basepoint = (space.default_point() if basepoint is None
                     else spaces.read_point(basepoint, space))
        if basepoint is None:
            raise DomainError("counting_orbit needs an explicit basepoint")
        return CountingOrbitMeasure(action, basepoint)
    if kind == "pullback":
        raise DomainError(
            "pullback measures live on a cover: declare a graph space with "
            'measure "pullback" plus a "cover" block (`presets.instance` '
            "lifts the problem), or build one via covers.universal_cover + "
            "PullbackMeasure")
    raise DomainError(f"unknown measure spec {kind!r}")


# -- the balls subcommand -------------------------------------------------------


def _balls(args, inp):
    from .reports import Report
    x = inp.point(args.center)
    r = rational(args.r)
    ball = spaces.enumerate_ball(inp.space, x, r, closed=args.closed)
    mass = None
    if inp.measure is not None:
        mass = ball_mass(inp.measure, inp.space, x, r, closed=args.closed)
    return Report(
        params={"center": x, "r": r, "closed": args.closed},
        result={"count": len(ball), "mass": mass,
                "points": [p for p, _ in ball[:200]]},
        summary=f"ball: {len(ball)} support points, mass {mass}")
