"""Universal covers of finite graphs, realized as windowed trees of reduced
edge-paths, with their free deck-transformation actions.

A cover vertex is a tuple of darts (edge id, direction) describing a
non-backtracking path from the basepoint lift; loops contribute two darts.
The spanning tree is the base graph's shortest-path tree from the
basepoint, and each non-tree edge yields one deck generator (so the deck
group is free of rank E - V + 1).  Distances in the cover are exact tree
distances computed from weighted depths and longest common prefixes.
"""

from __future__ import annotations

from fractions import Fraction

from . import groups, spaces
from .actions import GroupAction
from .exact import DomainError, WindowError, fmt_rational, rational, record

COVER_BUDGET = 200_000


def _reduce(path):
    out = []
    for dart in path:
        if out and out[-1][0] == dart[0] and out[-1][1] != dart[1]:
            out.pop()
        else:
            out.append(dart)
    return tuple(out)


def _inverse(path):
    return tuple((eid, 1 - direction) for eid, direction in reversed(path))


class DeckFamily(groups.GroupFamily):
    """Free deck group presented by reduced dart loops at the basepoint."""

    def __init__(self, cover: "CoverData"):
        self.cover = cover
        self.name = f"deck(b1={len(cover.generator_words)})"

    def identity(self):
        return ()

    def generators(self):
        gens = []
        for idx, word in enumerate(self.cover.generator_words):
            gens.append((f"g{idx + 1}", word))
            gens.append((f"g{idx + 1}^-1", _inverse(word)))
        return gens

    def multiply(self, a, b):
        return _reduce(a + b)

    def inverse(self, a):
        return _inverse(a)

    def word_length(self, a):
        raise DomainError("deck elements measure length through the cover metric")

    def is_infinite_order(self, a):
        return len(a) > 0

    # `multiply` is the free reduction of `FreeFamily` on darts
    subgroup_virtually_nilpotent = groups.FreeFamily.subgroup_virtually_nilpotent

    def serialize(self, a):
        return ";".join(f"{eid}{'+' if d else '-'}" for eid, d in a) or "e"


class CoverTreeSpace(spaces.Space):
    """The windowed cover tree as a metric space over dart-path vertices."""

    kind = "cover_tree"

    def __init__(self, cover: "CoverData"):
        self.cover = cover

    def distance(self, x, y):
        cov = self.cover
        common = 0
        for a, b in zip(x, y):
            if a != b:
                break
            common += 1
        prefix_weight = sum(cov.dart_weight(d) for d in x[:common])
        return cov.depth(x) + cov.depth(y) - 2 * prefix_weight

    def support(self):
        return list(self.cover.vertices)

    def is_point(self, x):
        return x in self.cover.vertex_set

    def safe_radius(self, x):
        return self.cover.window - self.cover.depth(x)

    def validate(self):
        return {"kind": self.kind, "ok": True, "issues": [],
                "window": fmt_rational(self.cover.window),
                "vertices": len(self.cover.vertices)}


@record
class CoverData:
    base: spaces.WeightedGraph
    basepoint: object
    window: Fraction
    vertices: list
    vertex_set: set
    depths: dict
    tree_paths: dict          # base vertex -> dart path inside the spanning tree
    generator_words: list     # one reduced loop per non-tree edge
    space: CoverTreeSpace = None

    def dart_weight(self, dart):
        return self.base.edges[dart[0]][2]

    def depth(self, v):
        try:
            return self.depths[v]
        except KeyError:
            raise DomainError(f"vertex {v!r} outside the materialized window")

    def project(self, v):
        vertex = self.basepoint
        for eid, direction in v:
            u, w, _weight = self.base.edges[eid]
            vertex = w if direction == 1 else u
        return vertex

    def betti(self) -> int:
        return len(self.generator_words)


class DeckAction(GroupAction):
    rule = "deck"

    def __init__(self, cover: CoverData):
        super().__init__(DeckFamily(cover), cover.space)
        self.cover = cover

    def apply(self, g, point):
        moved = _reduce(g + point)
        if moved not in self.cover.vertex_set:
            raise WindowError(
                "deck image escapes the materialized window; enlarge it")
        return moved

    def _moving_near(self, base, center, radius):
        base_proj = self.cover.project(base)
        inv_base = _inverse(base)
        rows = []
        for v in self.cover.vertices:
            if self.cover.project(v) != base_proj:
                continue
            d = self.space.distance(center, v)
            if d <= radius:
                g = _reduce(v + inv_base)
                rows.append((g, v, d))
        return rows

    def quotient_diameter(self):
        return self.cover.base.diameter()


def universal_cover(graph: spaces.WeightedGraph, basepoint,
                    window) -> CoverData:
    """Materialize the universal cover tree out to the given radius.

    The spanning tree is the base graph's deterministic shortest-path tree
    from the basepoint (`WeightedGraph.shortest_path_tree`), non-tree edges
    give the deck generators; the cover is the set of reduced dart paths of
    weighted length <= window, refused past `COVER_BUDGET` vertices.
    """
    if not graph.is_connected():
        raise DomainError("universal cover of a disconnected graph")
    window = rational(window)
    graph.check_point(basepoint)

    # darts_out[v] = [(dart, target, weight)], deterministic order
    darts_out = {v: [] for v in graph.vertices}
    for eid, (a, b, w) in enumerate(graph.edges):
        darts_out[a].append(((eid, 1), b, w))
        darts_out[b].append(((eid, 0), a, w))
    for v in darts_out:
        darts_out[v].sort(key=lambda row: row[0])

    # the base's shortest-path tree from the basepoint; tree edges are
    # never loops, so an edge's direction is read from its first endpoint
    parent = graph.shortest_path_tree(basepoint)
    tree_paths = {}
    for v in graph.vertices:
        path = []
        cur = v
        while parent[cur] is not None:
            eid, cur = parent[cur]
            path.append((eid, int(graph.edges[eid][0] == cur)))
        tree_paths[v] = tuple(reversed(path))
    tree_edges = {parent[v][0] for v in graph.vertices
                  if parent[v] is not None}

    generator_words = []
    for eid, (u, v, _w) in enumerate(graph.edges):
        if eid in tree_edges:
            continue
        word = _reduce(tree_paths[u] + ((eid, 1),) + _inverse(tree_paths[v]))
        generator_words.append(word)

    # windowed materialization of reduced dart paths
    root = ()
    depths = {root: Fraction(0)}
    vertices = [root]
    frontier = [(root, basepoint)]
    while frontier:
        nxt = []
        for path, at in frontier:
            for dart, dst, w in darts_out[at]:
                if path and path[-1][0] == dart[0] and path[-1][1] != dart[1]:
                    continue                          # backtracking
                nd = depths[path] + w
                if nd > window:
                    continue
                new_path = path + (dart,)
                depths[new_path] = nd
                vertices.append(new_path)
                nxt.append((new_path, dst))
                if len(vertices) > COVER_BUDGET:
                    raise WindowError(
                        f"cover window {fmt_rational(window)} materializes "
                        f"over {COVER_BUDGET} vertices",
                        required=len(vertices), available=COVER_BUDGET)
        frontier = nxt
    cover = CoverData(base=graph, basepoint=basepoint, window=window,
                      vertices=vertices, vertex_set=set(vertices),
                      depths=depths, tree_paths=tree_paths,
                      generator_words=generator_words)
    cover.space = CoverTreeSpace(cover)
    return cover


def graph_betti(graph: spaces.WeightedGraph):
    """First Betti number E - V + 1 (per component when disconnected)."""
    comps = graph.components()
    if len(comps) == 1:
        return len(graph.edges) - len(graph.vertices) + 1
    report = {}
    for comp in comps:
        cset = set(comp)
        edges = sum(1 for u, v, _w in graph.edges if u in cset and v in cset)
        report[tuple(comp)] = edges - len(comp) + 1
    return report
