"""Concrete metric-space realizations with exact rational distances.

Five variants: explicit finite metrics, weighted graphs (loops and multi
edges allowed), Cayley graphs of the built-in group families, the glued
line (a line with an interval hair attached at every eps*k), and metric
tripods.  Distance queries return `Fraction`s.  `scaled_distances_to` is
the one row primitive: the distances of a point set to one point as exact
ints on one scale (on a Cayley space, the family's `distances_to` row).
The packing conflict graph, first fit and the packing audit read it, and
`scaled_distances`, all pairwise distances for the four-point scan, is
built from its rows of the upper triangle.  A whole weighted graph reads
the shortest-path kernel instead, in `WeightedGraph.scaled_distances`, the
one place a graph builds all pairs: `distance_matrix` and `diameter` read
its rows, so both refuse a disconnected graph.  `check_ball` is the one gate
of every ball, measure profile and orbit scan: it refuses a centre that is
no point of the space, a radius past the declared safe window and a
negative radius, so nothing silently truncates.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from .exact import DomainError, WindowError, rational, fmt_rational
from . import groups

ENUMERATION_BUDGET = 2_000_000


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


class FiniteMetricSpace(Space):
    kind = "finite_metric"

    def __init__(self, matrix, labels=None, validate=True):
        n = len(matrix)
        self.matrix = [[rational(matrix[i][j]) for j in range(n)] for i in range(n)]
        self.labels = list(labels) if labels is not None else list(range(n))
        if len(self.labels) != n:
            raise DomainError("label count does not match matrix size")
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if validate:
            issues = self._check()
            if issues:
                raise DomainError("invalid metric: " + "; ".join(issues))

    def _check(self):
        issues = []
        n = len(self.matrix)
        for i in range(n):
            if self.matrix[i][i] != 0:
                issues.append(f"nonzero diagonal at {self.labels[i]}")
            for j in range(i + 1, n):
                if self.matrix[i][j] != self.matrix[j][i]:
                    issues.append(f"asymmetry at ({self.labels[i]},{self.labels[j]})")
                if self.matrix[i][j] < 0:
                    issues.append(f"negative distance at ({self.labels[i]},{self.labels[j]})")
        for i, j, k in itertools.permutations(range(n), 3):
            if self.matrix[i][j] > self.matrix[i][k] + self.matrix[k][j]:
                issues.append(
                    f"triangle violation: d({self.labels[i]},{self.labels[j]}) > "
                    f"d({self.labels[i]},{self.labels[k]}) + d({self.labels[k]},{self.labels[j]})")
        return issues

    def distance(self, x, y):
        return self.matrix[self._index[x]][self._index[y]]

    def support(self):
        return list(self.labels)

    def is_point(self, x):
        return x in self._index

    def validate(self):
        issues = self._check()
        return {"kind": self.kind, "ok": not issues, "issues": issues}


class WeightedGraph(Space):
    """Undirected graph with positive rational edge weights.

    Vertices are arbitrary sortable hashables; loops and parallel edges are
    allowed (they matter for universal covers).  Points are either vertices
    or exact mid-edge positions ('edge', edge_id, offset), needed by the
    natural parametrization of graph geodesics.
    """

    kind = "graph"

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self._vset = set(self.vertices)
        if len(self._vset) != len(self.vertices):
            raise DomainError("duplicate vertices")
        self.edges = []   # (u, v, weight)
        self.adj = {v: [] for v in self.vertices}   # vertex -> [(other, weight, eid)]
        for e in edges:
            u, v, w = e
            w = rational(w)
            if w <= 0:
                raise DomainError(f"edge weight must be positive: {e}")
            if u not in self._vset or v not in self._vset:
                raise DomainError(f"edge endpoint not a vertex: {e}")
            eid = len(self.edges)
            self.edges.append((u, v, w))
            self.adj[u].append((v, w, eid))
            if u != v:
                self.adj[v].append((u, w, eid))
            else:
                # a loop can be traversed both ways; same endpoint
                self.adj[u].append((v, w, eid))
        self._dist_cache = {}
        self._parent_cache = {}

    # -- shortest paths ------------------------------------------------

    def _dijkstra(self, source):
        """{vertex: distance} from source; the one shortest-path search,
        which also records each vertex's parent for `shortest_path_tree`."""
        if source in self._dist_cache:
            return self._dist_cache[source]
        dist = {source: Fraction(0)}
        parent = {source: None}
        heap = [(Fraction(0), point_key(source), source)]
        done = set()
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w, eid in self.adj[u]:
                nd = d + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = (eid, u)
                    heapq.heappush(heap, (nd, point_key(v), v))
        self._dist_cache[source] = dist
        self._parent_cache[source] = parent
        return dist

    def shortest_path_tree(self, source):
        """{vertex: (edge id, previous vertex)}, None at source: the tree of
        `_dijkstra`, which relaxes edges in id order and pops ties by key."""
        self._dijkstra(source)
        return self._parent_cache[source]

    def vertex_distance(self, u, v):
        dist = self._dijkstra(u)
        if v not in dist:
            raise DomainError(f"no path between {u!r} and {v!r} (disconnected graph)")
        return dist[v]

    def distance(self, x, y):
        if self._is_vertex(x) and self._is_vertex(y):
            return self.vertex_distance(x, y)
        xe = self._as_edge_point(x)
        ye = self._as_edge_point(y)
        best = None
        if xe is not None and ye is not None and xe[0] == ye[0]:
            best = abs(xe[1] - ye[1])   # along the shared edge
        for ex_end, ex_off in self._endpoint_offsets(x):
            for ey_end, ey_off in self._endpoint_offsets(y):
                d = ex_off + self.vertex_distance(ex_end, ey_end) + ey_off
                if best is None or d < best:
                    best = d
        return best

    def _is_vertex(self, x):
        return x in self._vset

    def _as_edge_point(self, x):
        if isinstance(x, tuple) and len(x) == 3 and x[0] == "edge":
            return x[1], rational(x[2])
        return None

    def _endpoint_offsets(self, x):
        if self._is_vertex(x):
            return [(x, Fraction(0))]
        ep = self._as_edge_point(x)
        if ep is None:
            raise DomainError(f"not a point of this graph: {x!r}")
        eid, off = ep
        u, v, w = self.edges[eid]
        if not (0 < off < w):
            raise DomainError(f"edge offset out of range: {x!r}")
        return [(u, off), (v, w - off)]

    def edge_point(self, eid, offset):
        """Canonical point at `offset` from the first endpoint of edge eid."""
        u, v, w = self.edges[eid]
        offset = rational(offset)
        if offset == 0:
            return u
        if offset == w:
            return v
        if not (0 < offset < w):
            raise DomainError("offset outside edge")
        return ("edge", eid, offset)

    # -- space interface -------------------------------------------------

    def support(self):
        return list(self.vertices)

    def is_point(self, x):
        if self._is_vertex(x):
            return True
        ep = self._as_edge_point(x)
        if ep is None:
            return False
        eid, off = ep
        return 0 <= eid < len(self.edges) and 0 < off < self.edges[eid][2]

    def is_connected(self):
        if not self.vertices:
            return True
        return len(self._dijkstra(self.vertices[0])) == len(self.vertices)

    def components(self):
        remaining = set(self.vertices)
        comps = []
        while remaining:
            seed = min(remaining, key=point_key)
            comp = set(self._dijkstra(seed))
            comps.append(sorted(comp, key=point_key))
            remaining -= comp
        return comps

    def distance_matrix(self):
        """All-pairs vertex distances as Fractions in `vertices` order: the
        rows of `scaled_distances` over the vertices, so DomainError for a
        disconnected graph."""
        scale, rows = self.scaled_distances(self.vertices)
        return [[Fraction(cell, scale) for cell in row] for row in rows]

    def scaled_distances(self, points):
        """The one place a graph builds all pairs: when `points` are exactly
        the vertices, the shortest-path kernel's ints on the edge-weight
        scale.  A strict subset or an edge point, or weights that do not
        scale into the kernel's int64 range, take the per-source Dijkstra
        of `distance` instead."""
        if len(points) != len(self.vertices) or set(points) != self._vset:
            return super().scaled_distances(points)
        from . import _kernels
        try:
            ints, scale = _kernels.scale_to_int([w for _u, _v, w in self.edges])
        except OverflowError:
            return super().scaled_distances(points)
        pos = {v: i for i, v in enumerate(self.vertices)}
        full = _kernels.graph_distances(
            len(self.vertices),
            [(pos[u], pos[v], iw) for (u, v, _w), iw in zip(self.edges, ints)])
        order = [pos[p] for p in points]
        rows = [[full[a][b] for b in order] for a in order]
        for a, row in zip(points, rows):
            if None in row:
                b = points[row.index(None)]
                raise DomainError(
                    f"no path between {a!r} and {b!r} (disconnected graph)")
        return scale, rows

    def diameter(self) -> Fraction:
        """The largest vertex distance, from the rows of `scaled_distances`;
        DomainError for a disconnected graph."""
        scale, rows = self.scaled_distances(self.vertices)
        return Fraction(max(map(max, rows), default=0), scale)

    def validate(self):
        issues = []
        if not self.is_connected():
            issues.append("graph is disconnected")
        return {"kind": self.kind, "ok": not issues, "issues": issues,
                "vertices": len(self.vertices), "edges": len(self.edges)}

    # -- geodesics -------------------------------------------------------

    def lex_geodesic(self, s, t):
        """Vertex sequence of the lexicographically smallest shortest path.

        Greedy from s: repeatedly step to the smallest-keyed neighbour that
        still lies on some shortest path to t.
        """
        dist_to_t = self._dijkstra(t)
        if s not in dist_to_t:
            raise DomainError(f"no path between {s!r} and {t!r}")
        path = [s]
        u = s
        while u != t:
            candidates = []
            for v, w, _eid in self.adj[u]:
                if v in dist_to_t and dist_to_t[u] == w + dist_to_t[v]:
                    candidates.append(v)
            u = min(candidates, key=point_key)
            path.append(u)
        return path

    def lightest_edge(self, a, b):
        """(weight, edge id) of the lightest a-b edge, the lowest id among
        equally light ones."""
        return min((w, eid) for v, w, eid in self.adj[a] if v == b)

    def path_length(self, path):
        return sum((self.lightest_edge(u, v)[0]
                    for u, v in zip(path, path[1:])), Fraction(0))

    def point_along(self, path, arclength):
        """Exact point (vertex or mid-edge) at `arclength` along `path`."""
        arclength = rational(arclength)
        if arclength < 0:
            raise DomainError("negative arclength")
        remaining = arclength
        for a, b in zip(path, path[1:]):
            w, eid = self.lightest_edge(a, b)
            if remaining <= w:
                eu, ev, ew = self.edges[eid]
                if remaining == 0:
                    return a
                if remaining == w:
                    return b
                off = remaining if eu == a else ew - remaining
                return self.edge_point(eid, off)
            remaining -= w
        if remaining == 0:
            return path[-1]
        raise DomainError("arclength exceeds path length")


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
        profiles.  The sizes are read to doubling lengths from the budget's
        bit length, so the work stops within twice the length at which the
        budget is passed, and a ball within that first length takes one
        read; a refusal that stopped short of n names its count as a lower
        bound."""
        r = rational(r)
        int_r = _word_radius(r, closed)
        if int_r < 0:
            return []
        n = min(ENUMERATION_BUDGET.bit_length(), int_r)
        while True:
            counts = self.family.sphere_sizes(n)
            total = sum(counts)
            if total > ENUMERATION_BUDGET:
                holds = total if n == int_r else f"at least {total}"
                raise WindowError(
                    f"ball of radius {fmt_rational(r)} holds {holds} elements, "
                    f"over the enumeration budget {ENUMERATION_BUDGET}",
                    required=total, available=ENUMERATION_BUDGET)
            if n == int_r or not counts[-1]:
                return counts
            n = min(2 * n, int_r)

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

class TripodSpace(Space):
    """Metric tripod: three branches of lengths (a, b, c) joined at a center."""

    kind = "tripod"

    def __init__(self, alpha, beta, gamma):
        self.alpha = rational(alpha)
        self.beta = rational(beta)
        self.gamma = rational(gamma)
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise DomainError("tripod branch lengths must be nonnegative")
        self._branch = {"x": self.alpha, "y": self.beta, "z": self.gamma}

    def distance(self, x, y):
        if x == y:
            return Fraction(0)
        dx = self._branch.get(x, Fraction(0))
        dy = self._branch.get(y, Fraction(0))
        return dx + dy

    def support(self):
        return ["c", "x", "y", "z"]

    def is_point(self, p):
        return p in ("x", "y", "z", "c")

    def validate(self):
        issues = []
        for name, length in self._branch.items():
            if length == 0:
                issues.append(f"degenerate branch {name} (endpoint coincides with center)")
        return {"kind": self.kind, "ok": True, "issues": issues}


def space_from_spec(spec: dict) -> Space:
    """Build a space from the documented JSON schema ({"kind": ..., ...})."""
    kind = spec.get("kind")
    if kind == "finite_metric":
        return FiniteMetricSpace(
            [[rational(x) for x in row] for row in spec["matrix"]],
            labels=spec.get("labels"),
            validate=spec.get("validate", True))
    if kind == "graph":
        # vertices are read as points are (`Space.from_json`): JSON lists
        # become tuples, so they hash
        edges = [(_tuplify(u), _tuplify(v), rational(w))
                 for u, v, w in spec["edges"]]
        return WeightedGraph([_tuplify(v) for v in spec["vertices"]], edges)
    if kind == "cayley":
        family = groups.family_from_spec(spec["group"])
        return CayleySpace(family)
    if kind == "glued_line":
        return GluedLineSpace(rational(spec["eps"]),
                              rational(spec["hair_length"]),
                              int(spec["window"]))
    if kind == "tripod":
        return TripodSpace(rational(spec["alpha"]), rational(spec["beta"]),
                           rational(spec["gamma"]))
    raise DomainError(f"unknown space kind {kind!r}")
