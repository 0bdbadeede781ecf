"""Hyperbolicity estimators: tripod decompositions, the four-point constant,
thin-triangle constants along materialized graph geodesics and geodesic
convexity defects.  The concentric-ball bounds for group actions on
hyperbolic-like spaces are `probes.cocompact_bg_check`.

Two different deltas are computed and never conflated: the four-point
constant is cheap and path-free; the thin-triangle constant follows the
actual tripod approximation along lexicographically chosen shortest paths.
Reports carry the method name and a witness that reproduces the value.

The exhaustive four-point constant first tries a one-basepoint
certificate.  With G[x][y] = d(0,x) + d(0,y) - d(x,y), the doubled Gromov
products at point 0, the largest four-point difference hi - mid over the
quadruples through point 0 is

    V0 = max over x, y of (max over z of min(G[x][z], G[z][y])) - G[x][y].

By the basepoint lemma (Gromov, "Hyperbolic groups", 1987, 1.1; Ghys and
de la Harpe 1990, ch. 2, prop. 2), a metric whose quadruples through one
point all have hi - mid <= c has hi - mid <= 2c on every quadruple, so the
maximum lies in [V0, 2 V0].  V0 = 0 therefore certifies that every
quadruple scores 0, as on trees and free group balls.
`basepoint_certificate` decides V0 = 0 exactly in O(n^2) pure Python, and
only when it fails does `four_point_delta` import `_kernels`, and with it
numpy, for the exact scan.  That scan takes the same Gromov products at
each point i in turn, over the points after it, and scores only the pairs
whose bound from the row maxima of those products beats the best score so
far: O(n^3) steps for the bounds, and O(n^4) only if no pair is skipped.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import spaces
from .exact import DomainError, check_range, rational, record

FOUR_POINT_CAP = 150


@record
class TripodDecomposition:
    alpha: Fraction
    beta: Fraction
    gamma: Fraction


def gromov_tripod(space, x, y, z) -> TripodDecomposition:
    """Branch lengths of the comparison tripod for the triangle (x, y, z)."""
    dxy, dxz, dyz = (space.distance(x, y), space.distance(x, z),
                     space.distance(y, z))
    alpha = (dxy + dxz - dyz) / 2
    beta = (dxy + dyz - dxz) / 2
    gamma = (dxz + dyz - dxy) / 2
    if alpha < 0 or beta < 0 or gamma < 0:
        raise DomainError(
            "triangle inequality fails on these points (unvalidated metric?)")
    return TripodDecomposition(alpha=alpha, beta=beta, gamma=gamma)


@record
class HyperbolicityReport:
    delta: Fraction
    method: str
    witness: tuple
    points_used: int


def basepoint_certificate(rows) -> bool:
    """Whether V0 = 0, which by the basepoint lemma gives delta = 0: exact
    on any symmetric integer matrix `rows`, in O(n^2) steps.

    With G[x][y] = d(0,x) + d(0,y) - d(x,y), V0 = 0 holds exactly when
    G[x][y] >= min(G[x][z], G[z][y]) for all x, y, z; for y = x that reads
    G[x][x] >= G[x][z].  Take the points in order, and for each v > 0 the
    first point p < v that maximizes k = G[v][p].  If V0 = 0, then
    G[v][v] >= k and G[v][u] = min(k, G[p][u]) for every u < v: v branches
    off p at level k from the tree of the points before it.  Conversely,
    these two checks give V0 = 0 on the points up to v, by induction on v
    (the identity at u = p reads k <= G[p][p]).  So each point's row of G
    up to itself is built and checked in turn, a whole row only for a
    point that is some p, and the check stops at the first failure.
    """
    d0 = rows[0]
    parents = {}
    for v in range(1, len(rows)):
        row = rows[v]
        top = d0[v]
        head = [top + a - b for a, b in zip(d0[:v], row)]
        k = max(head)
        p = head.index(k)
        if p not in parents:
            parents[p] = [d0[p] + a - b for a, b in zip(d0, rows[p])]
        if k > 2 * top - row[v] or head != [
                y if y < k else k for y in parents[p][:v]]:
            return False
    return True


def four_point_delta(space, points=None, mode="exhaustive", count=2000,
                     seed=0, cap=FOUR_POINT_CAP) -> HyperbolicityReport:
    """Four-point constant over a finite point set.

    delta = max over quadruples of (L1 - L2)/2 where L1 >= L2 >= L3 are the
    three pairings d(a,b)+d(c,d), d(a,c)+d(b,d), d(a,d)+d(b,c).  Exhaustive
    mode settles delta = 0 by `basepoint_certificate` in O(n^2) and
    otherwise runs the exact integer scan `_kernels.four_point_scan`, whose
    value and witness are those of all quadruples (point sets above `cap`
    are refused); sampled mode draws seeded quadruples and is a lower
    bound.  Fewer than four points give delta = 0 in either mode.
    """
    if mode == "exhaustive":
        method = "four_point_exhaustive"
    elif mode == "sampled":
        method = f"four_point_sampled(seed={seed},count={count})"
    else:
        raise DomainError(f"unknown four-point mode {mode!r}")
    pts = list(points) if points is not None else list(space.support())
    pts.sort(key=spaces.point_key)
    n = len(pts)
    if n < 4:
        return HyperbolicityReport(delta=Fraction(0), method=method,
                                   witness=(), points_used=n)
    if mode == "exhaustive":
        if n > cap:
            raise DomainError(
                f"{n} points exceed the exhaustive cap {cap}; use sampled mode")
        try:
            scale, rows = space.scaled_distances(pts)
        except DomainError:
            if points is None and space.kind == "graph":
                raise DomainError(
                    "four-point scan over a disconnected graph") from None
            raise
        check_range(itertools.chain.from_iterable(rows))
        if basepoint_certificate(rows):
            two_delta, i, j, k, l = 0, 0, 1, 2, 3
        else:
            from . import _kernels
            two_delta, i, j, k, l = _kernels.four_point_scan(rows)
        delta = Fraction(two_delta, 2 * scale)
        witness = (pts[i], pts[j], pts[k], pts[l])
        return HyperbolicityReport(delta=delta, method=method,
                                   witness=witness, points_used=n)
    rng = random.Random(seed)
    best = Fraction(0)
    witness = ()
    for _ in range(count):
        quad = rng.sample(range(n), 4)
        a, b, c, d = (pts[q] for q in quad)
        s1 = space.distance(a, b) + space.distance(c, d)
        s2 = space.distance(a, c) + space.distance(b, d)
        s3 = space.distance(a, d) + space.distance(b, c)
        hi, _, lo = sorted((s1, s2, s3), reverse=True)
        mid = s1 + s2 + s3 - hi - lo
        val = (hi - mid) / 2
        if val > best:
            best, witness = val, (a, b, c, d)
    return HyperbolicityReport(delta=best, method=method, witness=witness,
                               points_used=n)


# -- thin triangles -----------------------------------------------------------


def _prefix_lengths(graph, path):
    out = [Fraction(0)]
    for a, b in zip(path, path[1:]):
        out.append(out[-1] + graph.lightest_edge(a, b)[0])
    return out


def _fiber_candidates(tripod: TripodDecomposition, prefixes):
    """Branch-coordinate values where a fiber diameter can peak."""
    alpha, beta, gamma = tripod.alpha, tripod.beta, tripod.gamma
    xy, xz, yz = prefixes
    cands = {"x": {Fraction(0), alpha}, "y": {Fraction(0), beta},
             "z": {Fraction(0), gamma}}
    for s in xy:
        if s <= alpha:
            cands["x"].add(s)
        else:
            cands["y"].add(alpha + beta - s)
    for s in xz:
        if s <= alpha:
            cands["x"].add(s)
        else:
            cands["z"].add(alpha + gamma - s)
    for s in yz:
        if s <= beta:
            cands["y"].add(s)
        else:
            cands["z"].add(beta + gamma - s)
    return cands


def thin_triangle_delta(graph, count=60, seed=0):
    """Max tripod-fiber diameter over sampled geodesic triangles of a graph.

    Geodesics are the deterministic lexicographically-smallest shortest
    paths; fibers are evaluated at every vertex-crossing parameter, which
    is where the piecewise-linear fiber diameter peaks.
    """
    if graph.kind != "graph":
        raise DomainError("thin-triangle scan needs a graph space")
    verts = sorted(graph.vertices, key=spaces.point_key)
    triples = list(itertools.combinations(verts, 3))
    if len(triples) > count:
        rng = random.Random(seed)
        triples = rng.sample(triples, count)
        method = f"thin_triangle(sampled,count={count},seed={seed})"
    else:
        method = "thin_triangle(all vertex triples)"
    best = Fraction(0)
    witness = ()
    for x, y, z in triples:
        tripod = gromov_tripod(graph, x, y, z)
        gxy = graph.lex_geodesic(x, y)
        gxz = graph.lex_geodesic(x, z)
        gyz = graph.lex_geodesic(y, z)
        prefixes = (_prefix_lengths(graph, gxy), _prefix_lengths(graph, gxz),
                    _prefix_lengths(graph, gyz))
        alpha, beta, gamma = tripod.alpha, tripod.beta, tripod.gamma
        cands = _fiber_candidates(tripod, prefixes)

        def fiber(branch, t):
            if branch == "x":
                return [graph.point_along(gxy, t), graph.point_along(gxz, t)]
            if branch == "y":
                return [graph.point_along(gxy, alpha + beta - t),
                        graph.point_along(gyz, t)]
            return [graph.point_along(gxz, alpha + gamma - t),
                    graph.point_along(gyz, beta + gamma - t)]

        for branch, values in cands.items():
            for t in values:
                pts = fiber(branch, t)
                if t == 0:
                    # corner fiber is a single point
                    continue
                if (branch == "x" and t == alpha) or \
                   (branch == "y" and t == beta) or \
                   (branch == "z" and t == gamma):
                    pts = [graph.point_along(gxy, alpha),
                           graph.point_along(gxz, alpha),
                           graph.point_along(gyz, beta)]
                for p, q in itertools.combinations(pts, 2):
                    d = graph.distance(p, q)
                    if d > best:
                        best = d
                        witness = ((x, y, z), branch, t)
    return HyperbolicityReport(delta=best, method=method, witness=witness,
                               points_used=len(verts))


# -- convexity defect ---------------------------------------------------------


@record
class ConvexityReport:
    defect: Fraction
    witness: tuple
    grid: int
    samples: int


def convexity_defect(graph, triples=None, grid=8,
                     origin=None) -> ConvexityReport:
    """Largest violation of d(c0(t), c1(t)) <= t d(c0(1), c1(1)) over a grid.

    Geodesic pairs share an origin; c(t) is the exact point at arclength
    t * length along the materialized lexicographic path (mid-edge points
    allowed).  The defect is clamped at zero.
    """
    if graph.kind != "graph":
        raise DomainError("convexity defect needs a graph space")
    if grid < 2:
        raise DomainError("grid needs at least 2 parameter samples")
    if triples is None:
        verts = sorted(graph.vertices, key=spaces.point_key)
        o = origin if origin is not None else verts[0]
        if o not in graph.vertices:
            raise DomainError(f"convexity origin {o!r} is not a vertex")
        ends = [v for v in verts if v != o]
        triples = [(o, a, b) for a, b in itertools.combinations(ends, 2)]
    best = Fraction(0)
    witness = ()
    samples = 0
    for o, y0, y1 in triples:
        p0 = graph.lex_geodesic(o, y0)
        p1 = graph.lex_geodesic(o, y1)
        len0 = graph.path_length(p0)
        len1 = graph.path_length(p1)
        dend = graph.distance(y0, y1)
        for step in range(grid + 1):
            t = Fraction(step, grid)
            a = graph.point_along(p0, t * len0)
            b = graph.point_along(p1, t * len1)
            gap = graph.distance(a, b) - t * dend
            samples += 1
            if gap > best:
                best = gap
                witness = (o, y0, y1, t)
    return ConvexityReport(defect=best, witness=witness, grid=grid,
                           samples=samples)


# -- the delta and convexity subcommands ----------------------------------------


def _delta(args, inp):
    from .reports import Report
    space = inp.space
    # the points are the whole support of a finite space, and a ball around
    # --center on any other
    whole = space.kind in ("graph", "finite_metric", "tripod")
    if whole and args.center is not None:
        raise DomainError(f"--center: delta reads every point of this "
                          f"{space.kind} space, not a ball")
    if args.thin:
        if space.kind != "graph":
            raise DomainError("--thin needs a graph space")
        count = {} if args.samples is None else {"count": args.samples}
        rep_h = thin_triangle_delta(space, seed=args.seed, **count)
    else:
        mode = "exhaustive" if args.exhaustive or not args.samples else "sampled"
        points = None
        if not whole:
            x = inp.point(args.center)
            points = [p for p, _ in spaces.enumerate_ball(
                space, x, rational(args.radius), closed=True)]
        # sampled mode has samples; exhaustive mode reads no count
        rep_h = four_point_delta(space, points=points, mode=mode,
                                 count=args.samples, seed=args.seed)
    return Report(params={"method": rep_h.method},
                  result={"delta": rep_h.delta,
                          "delta_float": float(rep_h.delta),
                          "points_used": rep_h.points_used},
                  summary=f"delta: {float(rep_h.delta):.6g} by {rep_h.method}",
                  witnesses=[rep_h.witness])


def _convexity(args, inp):
    from .reports import Report
    # without --center the origin is the repr-first vertex, not inp.point's
    # first vertex
    origin = None if args.center is None else inp.point(args.center)
    rep_c = convexity_defect(inp.space, grid=args.grid, origin=origin)
    return Report(params={"grid": args.grid},
                  result={"defect": rep_c.defect,
                          "defect_float": float(rep_c.defect),
                          "samples": rep_c.samples},
                  summary=f"convexity defect: {float(rep_c.defect):.6g}",
                  witnesses=[rep_c.witness])
