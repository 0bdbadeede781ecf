"""Concrete metric-space realizations with exact rational distances.

Five variants: explicit finite metrics, weighted graphs (loops and multi
edges allowed), Cayley graphs of the built-in group families, the glued
line (a line with an interval hair attached at every eps*k), and metric
tripods.  The three with a finite support live in `finite_spaces`, which
`space_from_spec` imports only for their kinds, so a Cayley or glued-line
process never compiles them; code that needs to tell them apart reads
`Space.kind`.  Distance queries return `Fraction`s.  `scaled_distances_to`
is the one row primitive: the distances of a point set to one point as
exact ints on one scale (on a Cayley space, the family's `distances_to`
row).  The packing conflict graph, first fit and the packing audit read
it, and `scaled_distances`, all pairwise distances for the four-point
scan, is built from its rows of the upper triangle; a whole weighted graph
reads the shortest-path kernel instead.  `check_ball` is the one gate of
every ball, measure profile and orbit scan: it refuses a centre that is no
point of the space, a radius past the declared safe window and a negative
radius, so nothing silently truncates.  `read_spheres` is the one loop that
reads a family's closed-form sphere sizes, for Cayley balls and for the
analytic profiles of `actions` alike.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import DomainError, WindowError, rational, fmt_rational
from . import groups

ENUMERATION_BUDGET = 2_000_000
# the most sphere sizes one read takes: a profile of 2**24 lengths holds its
# sizes, ticks and totals in over a gigabyte
SPHERE_LIMIT = 1 << 24


def point_key(p) -> str:
    """Canonical total order on points of any one space (for determinism)."""
    return repr(p)


class Space:
    kind = "abstract"

    def distance(self, x, y) -> Fraction:
        raise NotImplementedError

    def scaled_distances(self, points):
        """(scale, rows): int rows with rows[i][j] / scale == d(points[i],
        points[j]) exactly, one distance computed per unordered pair.

        The upper triangle is read as one `scaled_distances_to` row per
        point, to the points after it; the rows are put on the lcm of their
        scales and mirrored."""
        upper = [self.scaled_distances_to(points[i + 1:], p)
                 for i, p in enumerate(points)]
        scale = math.lcm(*(s for s, _row in upper))
        rows = [[0] * (i + 1)
                + (row if s == scale else [d * (scale // s) for d in row])
                for i, (s, row) in enumerate(upper)]
        # the lower triangle of row i is column i of the rows above it
        for i, column in enumerate(list(zip(*rows))):
            rows[i][:i] = column[:i]
        return scale, rows

    def scaled_distances_to(self, points, x):
        """(scale, row): an int row with row[j] / scale == d(points[j], x)
        exactly, one distance per point, on the lcm of their denominators.
        The one row primitive: pairwise distances, the packing conflict
        graph, first fit and the packing audit all read it."""
        # d(x, p): a graph then runs one shortest-path search, from x
        row = [self.distance(x, p) for p in points]
        scale = math.lcm(*{d.denominator for d in row})
        return scale, [d.numerator * (scale // d.denominator) for d in row]

    def support(self):
        """Iterable of the canonical countable support (may need a window)."""
        raise NotImplementedError

    def ball(self, x, r, closed=False):
        """Sorted [(point, distance)] over support points with d < r (d <= r)."""
        r = rational(r)
        hits = []
        for p in self.support():
            d = self.distance(x, p)
            if (d <= r) if closed else (d < r):
                hits.append((p, d))
        hits.sort(key=lambda pd: (pd[1], point_key(pd[0])))
        return hits

    def is_point(self, x) -> bool:
        raise NotImplementedError

    def check_point(self, x):
        if not self.is_point(x):
            raise DomainError(f"{x!r} is not a point of this {self.kind} space")

    def from_json(self, value):
        """The point a parsed JSON value names: JSON lists become tuples."""
        return _tuplify(value)

    def default_point(self):
        """The point a command reads when it is given none, or None when the
        space has no such point."""
        return None

    def safe_radius(self, x) -> Fraction | None:
        """Largest radius for which ball enumeration at x is exhaustive."""
        return None

    def validate(self) -> dict:
        """Diagnostics; never raises."""
        return {"kind": self.kind, "ok": True, "issues": []}


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def read_point(value, space: Space):
    """The point of `space` that a JSON value names, or DomainError.

    A string that is a point stays as it is, so string vertices keep
    working; any other string is read as JSON text first, the way command
    line points and the keys of a "weights" object are written."""
    if isinstance(value, str) and not space.is_point(value):
        import json
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
    point = space.from_json(value)
    space.check_point(point)
    return point


def check_ball(space: Space, x, r) -> Fraction:
    """`r` as a rational, after the refusals of every ball at x: a point
    outside the space, a radius past the safe window, a negative radius.

    The one place a radius meets `safe_radius`: every ball enumeration,
    measure profile and orbit scan goes through it, so none of them can
    truncate.
    """
    space.check_point(x)
    r = rational(r)
    safe = space.safe_radius(x)
    if safe is not None and r > safe:
        raise WindowError(
            f"radius {fmt_rational(r)} exceeds the safe window "
            f"{fmt_rational(safe)} of this {space.kind} space",
            required=r, available=safe)
    if r < 0:
        raise DomainError("ball radius must be nonnegative")
    return r


def enumerate_ball(space: Space, x, r, closed=False):
    return space.ball(x, check_ball(space, x, r), closed=closed)


def has_infinite_order(family) -> bool:
    """Whether a generator has infinite order, so that no sphere is empty:
    the test by which a ball or a profile past its limit is refused before
    any read, as word length n gives n + 1 elements and sphere sizes."""
    return any(family.is_infinite_order(g)
               for _label, g in family.generators())


def read_spheres(family, n, bound):
    """`family.sphere_sizes(m)` for the first length m read that is n or
    SPHERE_LIMIT, whose sphere is empty (so is every later one) or whose
    ball total reaches `bound`: the one read of balls and profiles.  Reads
    start at the budget's bit length and grow at least twofold, as far as
    the last total allows below `bound`, since B(a + b) <= B(a) B(b)."""
    length = min(n, ENUMERATION_BUDGET.bit_length())
    while True:
        sizes = family.sphere_sizes(length)
        total = sum(sizes)
        if (length == n or not sizes[-1] or total >= bound
                or length == SPHERE_LIMIT):
            return sizes
        power = (bound.bit_length() - 1) // total.bit_length()
        length = min(n, SPHERE_LIMIT, max(2, power) * length)


def _word_radius(r: Fraction, closed) -> int:
    """Largest word length in the open (closed) ball of radius r."""
    return math.floor(r) if closed else math.ceil(r) - 1


class CayleySpace(Space):
    """Cayley graph of a built-in family with its standard generating set.

    Distances are word lengths computed from canonical forms; ball
    enumeration does breadth-first closure and is limited by an explicit
    element budget rather than a radius, because sphere growth varies
    wildly across families.
    """

    kind = "cayley"

    def __init__(self, family: groups.GroupFamily):
        self.family = family

    def distance(self, x, y):
        return Fraction(self.family.word_distance(x, y))

    def scaled_distances_to(self, points, x):
        return 1, self.family.distances_to(points, x)

    def support(self):
        raise WindowError("Cayley support is infinite; enumerate balls instead")

    def is_point(self, x):
        # canonical elements only: distance() trusts word_length on them
        return self.family.is_element(x)

    def identity(self):
        return self.family.identity()

    def default_point(self):
        return self.family.identity()

    def ball_spheres(self, r, closed=False):
        """[#{g : |g| = i} for i in 0..n], n the largest word length in the
        ball of radius r, which is the same at every centre, or a length
        whose sphere is empty, past which every sphere is empty too.
        WindowError when the ball holds more than ENUMERATION_BUDGET
        elements: the one budget check of `ball` and of analytic ball
        profiles.  The sizes come from `read_spheres`; a refusal that
        stopped short of n names its count as a lower bound, and so does
        one at n of ENUMERATION_BUDGET or more in a family with a generator
        of infinite order, which comes at once, before any read."""
        r = rational(r)
        int_r = _word_radius(r, closed)
        if int_r < 0:
            return []
        if int_r >= ENUMERATION_BUDGET and has_infinite_order(self.family):
            counts, total = [], int_r + 1
        else:
            counts = read_spheres(self.family, int_r, ENUMERATION_BUDGET + 1)
            total = sum(counts)
        if total > ENUMERATION_BUDGET:
            holds = (fmt_rational(total) if len(counts) > int_r
                     else f"at least {fmt_rational(total)}")
            raise WindowError(
                f"ball of radius {fmt_rational(r)} holds {holds} elements, "
                f"over the enumeration budget {ENUMERATION_BUDGET}",
                required=total, available=ENUMERATION_BUDGET)
        return counts

    def ball(self, x, r, closed=False):
        # breadth first through exactly the spheres `ball_spheres` counts,
        # which refuses a ball over the budget and stops at an empty sphere
        gens = [g for _, g in self.family.generators()]
        seen = {x}
        sphere = [x]
        hits = []
        for depth in range(len(self.ball_spheres(r, closed))):
            if depth:
                nxt = []
                for el in sphere:
                    for g in gens:
                        prod = self.family.multiply(el, g)
                        if prod not in seen:
                            seen.add(prod)
                            nxt.append(prod)
                # spheres come in distance order: sorting each by key gives
                # the (distance, key) order of `Space.ball`
                nxt.sort(key=point_key)
                sphere = nxt
            d = Fraction(depth)
            hits.extend((p, d) for p in sphere)
        return hits

    def validate(self):
        return {"kind": self.kind, "ok": True, "issues": [],
                "family": self.family.name}


class GluedLineSpace(Space):
    """The real line with a hair of fixed length attached at every eps*k.

    Canonical points: ('line', t) for t on the base line and
    ('hair', k, s) with 0 < s <= hair_length for a point at arclength s up
    the k-th hair; the hair tip is ('hair', k, hair_length).  The base is
    truncated to |t| <= window*eps and every consumer should keep radii
    within the reported safe window.
    """

    kind = "glued_line"

    def __init__(self, eps, hair_length, window):
        self.eps = rational(eps)
        self.hair = rational(hair_length)
        self.window = int(window)
        if self.eps <= 0 or self.hair <= 0 or self.window < 1:
            raise DomainError("glued line needs eps > 0, hair length > 0, window >= 1")

    def tip(self, k: int):
        return ("hair", k, self.hair)

    def base(self, k: int):
        return ("line", self.eps * k)

    def default_point(self):
        return self.tip(0)

    def from_json(self, value):
        """["line", t], ["hair", k, s] or ["tip", k] as a canonical point
        with exact coordinates; any other value is returned as it is."""
        try:
            kind = value[0]
            if kind == "line":
                point = ("line", rational(value[1]))
            elif kind == "hair":
                point = ("hair", value[1], rational(value[2]))
            elif kind == "tip":
                point = self.tip(value[1])
            else:
                return value
        except (LookupError, TypeError, ValueError):
            return value
        return point if self.is_point(point) else value

    def _coords(self, p):
        """(line position of the foot, arclength up the hair)."""
        if p[0] == "line":
            return rational(p[1]), Fraction(0), None
        if p[0] == "hair":
            return self.eps * p[1], rational(p[2]), p[1]
        raise DomainError(f"not a glued-line point: {p!r}")

    def distance(self, x, y):
        tx, sx, kx = self._coords(x)
        ty, sy, ky = self._coords(y)
        if kx is not None and kx == ky:
            return abs(sx - sy)
        return sx + abs(tx - ty) + sy

    def is_point(self, p):
        try:
            if p[0] == "line":
                t = rational(p[1])
                return abs(t) <= self.eps * self.window
            if p[0] == "hair":
                k, s = p[1], rational(p[2])
                return (type(k) is int and abs(k) <= self.window
                        and 0 < s <= self.hair)
        except Exception:
            return False
        return False

    def support(self):
        pts = []
        for k in range(-self.window, self.window + 1):
            pts.append(self.base(k))
            pts.append(self.tip(k))
        return pts

    def safe_radius(self, x):
        tx, sx, _ = self._coords(x)
        # beyond this radius the truncated window stops being exhaustive
        return self.eps * self.window - abs(tx) + sx

    def validate(self):
        return {"kind": self.kind, "ok": True, "issues": [],
                "window": self.window, "eps": fmt_rational(self.eps),
                "hair_length": fmt_rational(self.hair)}


def space_from_spec(spec: dict) -> Space:
    """Build a space from the documented JSON schema ({"kind": ..., ...})."""
    kind = spec.get("kind")
    if kind in ("finite_metric", "graph", "tripod"):
        from . import finite_spaces
    if kind == "finite_metric":
        return finite_spaces.FiniteMetricSpace(
            [[rational(x) for x in row] for row in spec["matrix"]],
            labels=spec.get("labels"),
            validate=spec.get("validate", True))
    if kind == "graph":
        # vertices are read as points are (`Space.from_json`): JSON lists
        # become tuples, so they hash
        vertices = [_tuplify(v) for v in spec["vertices"]]
        edges = [(_tuplify(u), _tuplify(v), rational(w))
                 for u, v, w in spec["edges"]]
        return finite_spaces.WeightedGraph(vertices, edges)
    if kind == "cayley":
        family = groups.family_from_spec(spec["group"])
        return CayleySpace(family)
    if kind == "glued_line":
        return GluedLineSpace(rational(spec["eps"]),
                              rational(spec["hair_length"]),
                              int(spec["window"]))
    if kind == "tripod":
        return finite_spaces.TripodSpace(
            rational(spec["alpha"]), rational(spec["beta"]),
            rational(spec["gamma"]))
    raise DomainError(f"unknown space kind {kind!r}")


def __getattr__(name):
    # `perfbench` reads the graph class here, where it lived before it moved
    # to `finite_spaces`; no module of bgkit reads it through this name
    if name == "WeightedGraph":
        from .finite_spaces import WeightedGraph
        return WeightedGraph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- the validate subcommand ----------------------------------------------------


def _validate(args, inp):
    from .reports import Report
    diag = inp.space.validate()
    status = "ok" if diag.get("ok") else "violated"
    return Report(params={}, result=diag, summary=f"validate: {status}",
                  status=status)
