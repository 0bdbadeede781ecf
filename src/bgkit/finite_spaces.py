"""The spaces with a finite support: explicit finite metrics, weighted
graphs (loops and multi edges allowed) and metric tripods.

`spaces.space_from_spec` imports this module only for these three kinds,
so a process that reads a Cayley space or the glued line never compiles
it.  A whole weighted graph reads the shortest-path kernel in
`WeightedGraph.scaled_distances`, the one place a graph builds all pairs:
`distance_matrix` and `diameter` read its rows, so both refuse a
disconnected graph.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction

from .exact import DomainError, fmt_rational, rational
from .spaces import Space, point_key


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
            if w <= 0 or u not in self._vset or v not in self._vset:
                problem = ("edge weight must be positive" if w <= 0
                           else "edge endpoint not a vertex")
                raise DomainError(f"{problem}: edge ({u!r}, {v!r}) of weight "
                                  f"{fmt_rational(w)}")
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
