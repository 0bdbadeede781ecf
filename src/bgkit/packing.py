"""Packing counts for concentric balls, and the sandwich inequalities that
relate them to orbit-counting and invariant-measure ball masses.

Conventions (recorded here because the source statements leave them open):
"balls of radius r in B(x, R)" means containment, i.e. centers c with
d(x, c) <= R - r; disjointness of the open balls is encoded as pairwise
center distance >= 2r, which is exact on the graph-like supports we pack.

Exact counts are maximum independent sets of the conflict graph (centers
at distance < 2r conflict).  Components are solved separately; bipartite
components go through Koenig's theorem (max matching), the rest through a
branch-and-bound on bitset adjacency, pruned by a degree-ordered greedy
clique cover (Tomita and Kameda's MCQ order on the complement graph).

Packing reads distances as ints and builds no Fraction distance, all
through the one row primitive `scaled_distances_to`: candidates keep the
ball's (distance, key) order and explicit candidates are read through one
row; the conflict graph reads one row per candidate, to the candidates
after it, and sets bits per conflict, not per pair; first fit and the
post-hoc audit compare int rows too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from operator import lt

from .exact import DomainError, WindowError, field, rational, record
from . import spaces
from .measures import CountingOrbitMeasure
from .measures import ball_mass  # noqa: F401  (perfbench/trace.py wraps it here)

EXACT_CAP = 60


@record
class PackingResult:
    count: int
    centers: list
    method: str
    candidates: int
    note: str = ""


def _candidate_rows(space, x, r, R, candidates):
    """Admissible centers (within R - r of x) in (distance-to-x, key) order.

    A ball is already in that order; explicit candidates are read through
    one int row of distances to x, compared with floor((R - r) scale)."""
    limit = R - r
    if candidates is None:
        return [p for p, _d in spaces.enumerate_ball(space, x, limit,
                                                     closed=True)]
    scale, row = space.scaled_distances_to(candidates, x)
    bound = limit.numerator * scale // limit.denominator
    rows = [(d, spaces.point_key(p), p) for d, p in zip(row, candidates)
            if d <= bound]
    rows.sort(key=lambda t: t[:2])
    return [p for _d, _k, p in rows]


def _separation(r, scale):
    """ceil(2r scale): an int distance d on `scale` is below 2r exactly when
    d is below this."""
    return -(-2 * r.numerator * scale // r.denominator)


def _conflict_masks(space, points, r):
    """Bitset adjacency of the 'centers closer than 2r' conflict graph.

    Each point reads one `scaled_distances_to` row, to the points after it,
    and `compress` picks the conflicting ones at C speed: Python sets bits
    per conflict, not per pair."""
    n = len(points)
    masks = [0] * n
    for i, p in enumerate(points):
        scale, row = space.scaled_distances_to(points[i + 1:], p)
        near = map(lt, row, repeat(_separation(r, scale)))
        bit = 1 << i
        for j in compress(range(i + 1, n), near):
            masks[i] |= 1 << j
            masks[j] |= bit
    return masks


def _first_fit(space, points, r):
    """Greedy packing: each candidate in order is taken when it is at least
    2r from every centre taken so far; one row of distances per candidate,
    to the centres only, so memory stays linear in the candidates."""
    centers = []
    for p in points:
        scale, row = space.scaled_distances_to(centers, p)
        threshold = _separation(r, scale)
        if min(row, default=threshold) >= threshold:
            centers.append(p)
    return centers


def _components(masks):
    """Connected components as sorted index lists, by lowest index.  A
    component grows by OR-ing in the whole mask of each vertex it reaches:
    one step per vertex, not per edge."""
    comps = []
    left = (1 << len(masks)) - 1
    while left:
        comp = frontier = left & -left
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = masks[v] & ~comp
            comp |= new
            frontier |= new
        left &= ~comp
        comps.append(_bits(comp))
    return comps


def _bits(mask):
    """The set bits of mask, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _bipartition(masks, comp):
    color = {}
    stack = [(comp[0], 0)]
    while stack:
        u, c = stack.pop()
        if u in color:
            if color[u] != c:
                return None
            continue
        color[u] = c
        m = masks[u]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if v in color:
                if color[v] == c:
                    return None
            else:
                stack.append((v, 1 - c))
    left = [u for u in comp if color[u] == 0]
    right = [u for u in comp if color[u] == 1]
    return left, right


def _augment(masks, match_r, match_l, u, visited):
    """Extend the matching by an augmenting path from left vertex u."""
    m = masks[u]
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        if v in visited or v not in match_r:
            continue
        visited.add(v)
        if match_r[v] is None or _augment(masks, match_r, match_l,
                                          match_r[v], visited):
            match_r[v] = u
            match_l[u] = v
            return True
    return False


def _koenig_mis(masks, comp, left, right):
    """Max independent set of a bipartite component, with parts left and
    right, via max matching."""
    match_r = {v: None for v in right}
    match_l = {u: None for u in left}
    for u in left:
        _augment(masks, match_r, match_l, u, set())

    # Koenig: alternating reachability from unmatched left vertices
    reach_l, reach_r = set(), set()
    frontier = [u for u in left if match_l[u] is None]
    reach_l.update(frontier)
    while frontier:
        nxt = []
        for u in frontier:
            m = masks[u]
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if v in reach_r or v not in match_r:
                    continue
                reach_r.add(v)
                w = match_r[v]
                if w is not None and w not in reach_l:
                    reach_l.add(w)
                    nxt.append(w)
        frontier = nxt
    cover = [u for u in left if u not in reach_l] + [v for v in right if v in reach_r]
    independent = [u for u in comp if u not in set(cover)]
    return independent


def _clique_cover_bound(masks, avail):
    """Greedy clique cover size: an upper bound for the independence number.

    The vertices of avail are ordered once by (degree inside avail, index):
    fewest conflicts first, which is the descending-degree order of Tomita
    and Kameda's MCQ colouring on the complement graph.  Each clique starts
    at the first vertex in that order still uncovered and grows by the
    lowest-index common neighbour left."""
    order = []
    m = avail
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        order.append(((masks[v] & avail).bit_count(), v))
    order.sort()
    remaining = avail
    cliques = 0
    for _deg, v in order:
        if not (remaining >> v) & 1:
            continue
        remaining &= ~(1 << v)
        cand = masks[v] & remaining
        while cand:
            u = (cand & -cand).bit_length() - 1
            remaining &= ~(1 << u)
            cand &= masks[u] & remaining
        cliques += 1
    return cliques


def _greedy_mis_mask(masks, avail):
    """Min-degree greedy independent set; seeds the branch-and-bound."""
    chosen = 0
    while avail:
        m, pick, pick_deg = avail, -1, None
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (masks[u] & avail).bit_count()
            if pick_deg is None or deg < pick_deg:
                pick, pick_deg = u, deg
                if deg == 0:
                    break
        chosen |= 1 << pick
        avail &= ~((1 << pick) | masks[pick])
    return chosen


def _bb_branch(masks, best, avail, chosen, size):
    """Branch and bound below one node; `best` is [size, mask] so far."""
    if not avail:
        if size > best[0]:
            best[0], best[1] = size, chosen
        return
    if size + _clique_cover_bound(masks, avail) <= best[0]:
        return
    # branch on a vertex of maximum conflict degree inside avail
    m, pick, pick_deg = avail, -1, -1
    while m:
        u = (m & -m).bit_length() - 1
        m &= m - 1
        deg = (masks[u] & avail).bit_count()
        if deg > pick_deg:
            pick, pick_deg = u, deg
    if pick_deg == 0:
        total = size + avail.bit_count()
        if total > best[0]:
            best[0], best[1] = total, chosen | avail
        return
    bit = 1 << pick
    # take pick, then skip it
    _bb_branch(masks, best, avail & ~bit & ~masks[pick], chosen | bit, size + 1)
    _bb_branch(masks, best, avail & ~bit, chosen, size)


def _bb_mis(masks, comp):
    """Branch and bound maximum independent set on one component."""
    avail0 = 0
    for u in comp:
        avail0 |= 1 << u
    seed = _greedy_mis_mask(masks, avail0)
    best = [seed.bit_count(), seed]
    _bb_branch(masks, best, avail0, 0, 0)
    return _bits(best[1])


def _exact_mis(space, points, r):
    masks = _conflict_masks(space, points, r)
    chosen = []
    bipartite_used = False
    for comp in _components(masks):
        parts = _bipartition(masks, comp) if len(comp) > 2 else None
        if parts is not None:
            chosen.extend(_koenig_mis(masks, comp, *parts))
            bipartite_used = True
        else:
            chosen.extend(_bb_mis(masks, comp))
    method = "exact" + ("+koenig" if bipartite_used else "")
    return sorted(chosen), method


def packing_radii(r, R):
    """(r, R) as rationals; DomainError unless 0 < r <= R/2."""
    r, R = rational(r), rational(R)
    if not 0 < r <= R / 2:
        raise DomainError("packing needs 0 < r <= R/2")
    return r, R


def packing_count(space, x, r, R, mode="exact", candidates=None,
                  cap=EXACT_CAP) -> PackingResult:
    """Largest (greedy: maximal) family of disjoint radius-r balls in B(x, R).

    Candidate centers default to the space's support points within R - r of
    x; packings of the orbit variant pass the orbit points explicitly.  The
    exact solver refuses candidate sets above `cap` (raise it deliberately
    for larger certified instances).
    """
    r, R = packing_radii(r, R)
    if (mode == "exact" and candidates is None
            and isinstance(space, spaces.CayleySpace)):
        # the closed-form ball size refuses an over-cap ball unenumerated
        spaces.check_ball(space, x, R - r)
        _check_cap(sum(space.ball_spheres(R - r, closed=True)), cap)
    points = _candidate_rows(space, x, r, R, candidates)
    if mode == "greedy":
        centers = _first_fit(space, points, r)
        result = PackingResult(count=len(centers), centers=centers,
                               method="greedy", candidates=len(points))
    elif mode == "exact":
        _check_cap(len(points), cap)
        idx, method = _exact_mis(space, points, r)
        result = PackingResult(count=len(idx), centers=[points[i] for i in idx],
                               method=method, candidates=len(points))
    else:
        raise DomainError(f"unknown packing mode {mode!r}")
    _verify_packing(space, x, result.centers, r, R)
    return result


def _check_cap(count, cap):
    if count > cap:
        raise DomainError(f"{count} candidates exceed the exact cap {cap}; "
                          "use greedy mode or raise the cap")


def _verify_packing(space, x, centers, r, R):
    """Post-hoc audit from raw distances; a failure is an internal bug.

    Distances are read as int rows (`scaled_distances_to`): one from the
    centers to x, then one per center to the centers before it, so memory
    stays linear in the centers.  Each int is compared with R - r and 2r
    by cross-multiplication with the row's scale."""
    limit, separation = R - r, 2 * r
    ln, ld = limit.numerator, limit.denominator
    sn, sd = separation.numerator, separation.denominator
    scale, row = space.scaled_distances_to(centers, x)
    for d in row:
        if d * ld > ln * scale:
            raise AssertionError("packing center escapes the containment radius")
    for i, c in enumerate(centers):
        scale, row = space.scaled_distances_to(centers[:i], c)
        for d in row:
            if d * sd < sn * scale:
                raise AssertionError("packing centers closer than 2r")


def gamma_packing_count(action, x, r, R, mode="exact", cap=EXACT_CAP) -> PackingResult:
    """Packing count with centers restricted to the orbit of x."""
    r, R = packing_radii(r, R)
    rows = action.elements_moving_near(x, x, R - r)
    # one candidate per orbit point; `_candidate_rows` puts them in order
    candidates = list({spaces.point_key(p): p for _g, p, _d in rows}.values())
    result = packing_count(action.space, x, r, R, mode=mode,
                           candidates=candidates, cap=cap)
    result.note = "centers restricted to the orbit"
    return result


@record
class SandwichReport:
    r: Fraction
    R: Fraction
    counting_lower: Fraction
    pack_orbit: int
    invariant_ratio: Fraction
    pack_all: int
    sup_ratio: Fraction
    chain_holds: bool
    lemma_pack_vs_orbit: tuple | None
    details: dict = field(default_factory=dict)


def _fits(space, x, r) -> bool:
    """Whether a ball of radius r at x stays inside the safe window."""
    try:
        spaces.check_ball(space, x, r)
    except WindowError:
        return False
    return True


def sandwich_check(action, measure, x, r, R, sup_sample,
                   cap=2000) -> SandwichReport:
    """Exhaustively verify the packing sandwich on one instance.

        counting(closed R-r) / counting(open 2r)
            <= Pack_orbit(x, r, R) <= invariant(B(x,R)) / invariant(B(x,r))
        Pack(x, r, R) <= sup_y invariant(B(y,2R)) / invariant(B(y,r))

    plus, when the codiameter D satisfies D < r, the covering comparison
    Pack(x, r, R) <= Pack_orbit(x, r - D, R).  The sup runs over the finite
    `sup_sample` (a fundamental domain), recorded as a limitation.
    """
    sup_sample = list(sup_sample)
    if not sup_sample:
        raise DomainError("the sandwich sup needs a nonempty sup sample")
    r, R = packing_radii(r, R)
    space = action.space
    # One profile per (measure, center), built to the largest radius read
    # from it.  The refusals of the first query, the closed R - r ball,
    # come first, as they would from ball_mass.
    counting = CountingOrbitMeasure(action, x)
    spaces.check_ball(space, x, R - r)
    at_x = counting.profile(space, x, max(R - r, 2 * r))
    lower = at_x.ratio(R - r, 2 * r, closed=True)
    pack_orbit = gamma_packing_count(action, x, r, R, mode="exact", cap=cap)
    # When x is in the sup sample, its invariant profile is built once, to
    # 2R, if the window allows; otherwise to R, then again for the sup.
    wide = x in sup_sample and _fits(space, x, 2 * R)
    inv_at_x = measure.profile(space, x, 2 * R if wide else R)
    inv_ratio = inv_at_x.ratio(R, r)
    pack_all = packing_count(space, x, r, R, mode="exact", cap=cap)
    # Every sup point reads its profile through the measure, whose memo
    # hands a center-free measure's one profile to every point after its
    # ball checks there; a ratio is computed only when the profile changes.
    ratios, profile = [], None
    for y in sup_sample:
        at_y = (inv_at_x if wide and y == x
                else measure.profile(space, y, 2 * R))
        if at_y is not profile:
            profile = at_y
            ratios.append(profile.ratio(2 * R, r))
    sup_ratio = max(ratios)
    chain = (lower <= pack_orbit.count
             and pack_orbit.count <= inv_ratio
             and pack_all.count <= sup_ratio)
    lemma = None
    D = action.quotient_diameter()
    if D < r:
        shrunk = gamma_packing_count(action, x, r - D, R, mode="exact", cap=cap)
        lemma = (pack_all.count, shrunk.count, pack_all.count <= shrunk.count)
    return SandwichReport(
        r=r, R=R, counting_lower=lower, pack_orbit=pack_orbit.count,
        invariant_ratio=inv_ratio, pack_all=pack_all.count,
        sup_ratio=sup_ratio, chain_holds=chain, lemma_pack_vs_orbit=lemma,
        details={"sup_sample_size": len(sup_sample),
                 "codiameter": D})


# -- the pack subcommand --------------------------------------------------------


def _pack(args, inp):
    from .reports import Report
    x = inp.point(args.center)
    mode = "exact" if args.exact else "greedy"
    cap = EXACT_CAP if args.cap is None else args.cap
    if args.orbit:
        if inp.action is None:
            raise DomainError("--orbit needs an action")
        res = gamma_packing_count(inp.action, x, rational(args.r),
                                  rational(args.R), mode=mode, cap=cap)
    else:
        res = packing_count(inp.space, x, rational(args.r), rational(args.R),
                            mode=mode, cap=cap)
    return Report(params={"r": rational(args.r), "R": rational(args.R),
                          "mode": mode, "orbit": bool(args.orbit)},
                  result={"count": res.count, "method": res.method,
                          "candidates": res.candidates,
                          "centers": res.centers[:100]},
                  summary=f"pack: {res.count} ({res.method})")
