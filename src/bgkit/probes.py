"""Invariants probed through a group action, beyond its orbit counts.

Displacement sets Sigma_r(x), systole/diastole statistics, thin sets,
Margulis-constant scans, short generating families with the exact index
of the subgroup they generate (Stallings folds for free groups, an echelon
form for free-abelian groups), and the strengthened and cocompact
concentric-ball checks.  Every orbit scan goes through
`actions.GroupAction.orbit_within`; the bound formulas live in `bounds`.
Only the probe subcommands (systole, diastole, thin-set, margulis,
short-gens) import this module, so no other subcommand compiles it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import groups, spaces
from .actions import GroupAction
from .exact import DomainError, VERIFIED, WindowError, field, rational, record
from .measures import CountingOrbitMeasure

STRENGTHENED_PACK_CAP = 4000    # candidates of each exact packing(iii) count


# ---------------------------------------------------------------------------
# Sigma_r, systole, thin sets, Margulis scans
# ---------------------------------------------------------------------------


@record
class SigmaResult:
    elements: list
    virtually_nilpotent: bool | None


def sigma_r(action: GroupAction, x, r) -> SigmaResult:
    """Sigma_r(x) together with the family's verdict on the generated subgroup."""
    rows = action.orbit_within(x, r)
    elements = [g for g, _d in rows]
    identity = action.family.identity()
    gens = [g for g in elements if g != identity]
    verdict = action.family.subgroup_virtually_nilpotent(gens)
    return SigmaResult(elements=elements, virtually_nilpotent=verdict)


@record
class SystolePoint:
    point: object
    systole: Fraction | None
    torsion_free_systole: Fraction | None
    stabilized: bool


@record
class SystoleReport:
    per_point: list
    diastole: Fraction | None
    torsion_free_diastole: Fraction | None
    systole: Fraction | None
    torsion_free_systole: Fraction | None
    warnings: list = field(default_factory=list)


def _point_systole(action: GroupAction, x, ceiling) -> SystolePoint:
    """Systoles at x, both read from one sequence of doubling probe radii;
    both None when nothing nontrivial moves x within the ceiling.

    Exact: a probe enumerates its ball exhaustively and sorted, so the
    first nontrivial row (of infinite order, for the torsion-free systole)
    of the first probe holding one is the minimum.  The probes stop once
    the systole is found, and the torsion-free one too when a generator has
    infinite order; at the ceiling; and, with no ceiling, after the first
    probe when every generator is the identity, as it has then seen the
    whole group.  WindowError when a probe passes the safe window.
    """
    family = action.family
    identity = family.identity()
    gens = [g for _, g in family.generators()]
    has_free = any(family.is_infinite_order(g) for g in gens)
    trivial = all(g == identity for g in gens)
    radius = rational(ceiling) if ceiling is not None else None
    sys_val = sys_free = None
    probe = Fraction(1)
    while True:
        limit = probe if radius is None else min(probe, radius)
        for g, d in action.orbit_within(x, limit):
            if g != identity:
                if sys_val is None:
                    sys_val = d
                if has_free and family.is_infinite_order(g):
                    sys_free = d
                    break
        if sys_val is not None and (sys_free is not None or not has_free):
            break
        if radius is not None and probe >= radius or radius is None and trivial:
            break
        probe *= 2
    return SystolePoint(point=x, systole=sys_val, torsion_free_systole=sys_free,
                        stabilized=sys_val == 0)


def systole(action: GroupAction, sample, ceiling=None) -> SystoleReport:
    """Exact per-point systoles over a finite sample of base points."""
    per_point = []
    warnings = []
    for x in sample:
        sp = _point_systole(action, x, ceiling)
        if sp.systole is None:
            raise WindowError(
                f"no nontrivial displacement of {x!r} within the scan ceiling")
        if sp.stabilized:
            warnings.append(f"stabilizer at {x!r}: systole 0 from a fixed point")
        per_point.append(sp)
    sys_vals = [p.systole for p in per_point if p.systole is not None]
    free_vals = [p.torsion_free_systole for p in per_point
                 if p.torsion_free_systole is not None]
    return SystoleReport(
        per_point=per_point,
        diastole=max(sys_vals) if sys_vals else None,
        torsion_free_diastole=max(free_vals) if free_vals else None,
        systole=min(sys_vals) if sys_vals else None,
        torsion_free_systole=min(free_vals) if free_vals else None,
        warnings=warnings)


@record
class ThinSetReport:
    r: Fraction
    membership: dict
    verdict: str
    torsion_free_verdict: str


def _connectivity_verdict(members, adjacency):
    if not members:
        return "empty"
    members = set(members)
    seed = next(iter(sorted(members, key=spaces.point_key)))
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency.get(u, ()):  # induced subgraph walk
                if v in members and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return "connected" if seen == members else "disconnected"


def thin_set(action: GroupAction, r, sample, adjacency, ceiling=None) -> ThinSetReport:
    """Membership x in X_r iff sys(x) < r, with sampled connectivity verdict."""
    r = rational(r)
    membership, free_membership = {}, {}
    for x in sample:
        # nothing moving x within the ceiling leaves both systoles None:
        # certainly not r-thin.  A probe past the safe window raises.
        sp = _point_systole(action, x, ceiling if ceiling is not None else 4 * r)
        membership[x] = sp.systole is not None and sp.systole < r
        free_membership[x] = (sp.torsion_free_systole is not None
                              and sp.torsion_free_systole < r)
    verdict = _connectivity_verdict([x for x, m in membership.items() if m], adjacency)
    free_verdict = _connectivity_verdict(
        [x for x, m in free_membership.items() if m], adjacency)
    return ThinSetReport(r=r, membership=membership, verdict=verdict,
                         torsion_free_verdict=free_verdict)


@record
class MargulisPoint:
    point: object
    estimate: Fraction
    attained: bool          # False when the estimate is a supremum at a flip
    hit_ceiling: bool
    provenance: str


def margulis_estimate(action: GroupAction, sample, ceiling) -> list:
    """Per point, sup of radii r with Gamma_r(x) classified virtually nilpotent.

    Scans the exact displacement spectrum up to `ceiling`; the classification
    comes from the family rule, never from generic group computation.  When
    the family cannot decide the result is reported as provenance "unknown".
    One enumeration per point: Sigma_r(x) at each radius r of the spectrum
    is the prefix, up to r, of the sorted rows `sigma_r` would enumerate.
    """
    ceiling = rational(ceiling)
    identity = action.family.identity()
    out = []
    for x in sample:
        rows = action.orbit_within(x, ceiling)
        gens, flip, provenance = [], None, "family rule"
        for rad, ring in itertools.groupby(rows, key=lambda gd: gd[1]):
            gens += [g for g, _d in ring if g != identity]
            verdict = action.family.subgroup_virtually_nilpotent(gens)
            if verdict is None:
                provenance = "unknown"
                break
            if not verdict:
                flip = rad
                break
        out.append(MargulisPoint(
            point=x, estimate=ceiling if flip is None else flip,
            attained=flip is None and provenance != "unknown",
            hit_ceiling=flip is None, provenance=provenance))
    return out


# ---------------------------------------------------------------------------
# Short generating families
# ---------------------------------------------------------------------------


@record
class ShortGeneratorsResult:
    elements: list
    orbit_points: list
    separation_ok: bool
    reach_ok: bool
    index_verdict: str
    index: int | None
    codiameter: Fraction


def short_generators(action: GroupAction, x0, R) -> ShortGeneratorsResult:
    """Greedy maximal R-separated orbit subset within 2D+R, as group elements.

    Distances (i) d(x0, g x0) <= 2D+R and (ii) pairwise >= R are re-verified
    exactly on the output; the index of the subgroup the elements generate
    is decided exactly by `_subgroup_index`, or left inconclusive for a
    family it has no procedure for.
    DomainError for R <= 0, where R-separation means nothing, before any
    orbit scan.
    """
    R = rational(R)
    if R <= 0:
        raise DomainError("short generators need a separation R > 0")
    D = action.quotient_diameter()
    radius = 2 * D + R
    rows = action.orbit_within(x0, radius)
    chosen = []
    chosen_points = []
    for g, d in rows:
        p = action.apply(g, x0)
        if all(action.space.distance(p, q) >= R for q in chosen_points):
            chosen.append(g)
            chosen_points.append(p)
    reach_ok = all(action.space.distance(x0, p) <= radius for p in chosen_points)
    separation_ok = all(
        action.space.distance(p, q) >= R
        for p, q in itertools.combinations(chosen_points, 2))
    identity = action.family.identity()
    elements = [g for g in chosen if g != identity]
    verdict, index = _subgroup_index(action.family, elements)
    return ShortGeneratorsResult(elements=elements, orbit_points=chosen_points,
                                 separation_ok=separation_ok, reach_ok=reach_ok,
                                 index_verdict=verdict, index=index,
                                 codiameter=D)


def _subgroup_index(family, gens):
    """("finite", n) when the subgroup generated by `gens` has index n in
    the family's group, ("infinite", None) when its index is infinite, and
    ("inconclusive", None) for a family with no decision procedure here
    (products and deck groups)."""
    gens = [g for g in gens if g != family.identity()]
    if isinstance(family, groups.TrivialFamily):
        return "finite", 1
    if isinstance(family, groups.FreeAbelianFamily):
        basis = _integer_row_basis(gens)
        if len(basis) < family.rank:
            return "infinite", None
        # pivots strictly increase, so the full-rank basis is upper
        # triangular and the index is |det|, the product of its diagonal
        return "finite", abs(math.prod(row[i] for i, row in enumerate(basis)))
    if isinstance(family, groups.FreeFamily):
        index = StallingsGraph(family, gens).index()
        return ("infinite", None) if index is None else ("finite", index)
    # last, so that the families above never load `permutations`
    from .permutations import FinitePermutationFamily
    if isinstance(family, FinitePermutationFamily):
        sub = FinitePermutationFamily(gens or [family.identity()])
        return "finite", len(family.elements()) // len(sub.elements())
    return "inconclusive", None


def _integer_row_basis(rows):
    # fraction-free row echelon over Z: the nonzero rows, with strictly
    # increasing pivots, of a basis of the lattice the rows span
    basis = [list(r) for r in rows if any(r)]
    changed = True
    while changed:
        changed = False
        basis = [b for b in basis if any(b)]
        basis.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
        for i in range(len(basis) - 1):
            p_i = next(j for j, x in enumerate(basis[i]) if x)
            p_n = next(j for j, x in enumerate(basis[i + 1]) if x)
            if p_i == p_n:
                a, b = basis[i][p_i], basis[i + 1][p_i]
                if abs(a) > abs(b):
                    basis[i], basis[i + 1] = basis[i + 1], basis[i]
                    a, b = b, a
                q = b // a
                basis[i + 1] = [x - q * y for x, y in zip(basis[i + 1], basis[i])]
                changed = True
                break
    return [b for b in basis if any(b)]


class StallingsGraph:
    """Folded subgroup graph of a finitely generated subgroup of free(k).

    Each generator is a loop of edges at vertex 0.  The fold merges the
    targets of any two edges that leave one vertex by one letter, and so
    the sources of their inverses, until every vertex has at most one edge
    per letter (Stallings, "Topology of finite graphs", 1983).  The
    subgroup has finite index exactly when the folded graph covers the rose
    of k petals, and the index is then its vertex count (Kapovich and
    Myasnikov, "Stallings foldings and subgroups of free groups", 2002).
    """

    def __init__(self, family: groups.FreeFamily, gens):
        self.family = family
        pending = []        # directed edges (vertex, letter, vertex) to add
        size = 1
        for word in gens:
            if not word:
                continue
            inner = range(size, size + len(word) - 1)
            size += len(word) - 1
            path = [0, *inner, 0]
            for a, letter, b in zip(path, word, path[1:]):
                pending += [(a, letter, b), (b, -letter, a)]
        self._parent = list(range(size))
        self._edges = [{} for _ in range(size)]    # vertex -> {letter: vertex}
        while pending:
            a, letter, b = pending.pop()
            a, b = self._find(a), self._find(b)
            c = self._find(self._edges[a].setdefault(letter, b))
            if c != b:
                # a second edge leaves a by this letter: b becomes c, and
                # b's edges are added again from c
                self._parent[b] = c
                pending += [(b, x, d) for x, d in self._edges[b].items()]
                self._edges[b] = {}

    def _find(self, x):
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def index(self) -> int | None:
        """The subgroup's index in free(k): the number of vertices when
        every vertex has an edge for each of the 2k letters, so that the
        folded graph covers the rose, and None (infinite) otherwise."""
        roots = [v for v, p in enumerate(self._parent) if v == p]
        letters = 2 * self.family.rank
        if all(len(self._edges[v]) == letters for v in roots):
            return len(roots)
        return None


# ---------------------------------------------------------------------------
# Strengthened concentric-ball bounds under a convexity hypothesis
# ---------------------------------------------------------------------------


def strengthened_bg_check(action: GroupAction, x, cert, D, pairs,
                          measure=None) -> list:
    """Check the three strengthened bounds for the orbit counting measure.

    `cert` is a verified weak certificate (scale r0, factor C, exponent K)
    for some invariant measure on the space; the space is declared
    convexity-friendly by the caller (recorded, not asserted here).  For
    every sampled pair (r, R) the applicable formulas are compared against
    exact orbit-counting ratios and exact packing counts.
    """
    # imported here, so that the probe subcommands do not load curvature
    # and packing; only the concentric-ball checks need them
    from . import packing
    from .curvature import BGParams, PairCheck, pair_check
    if cert.status != VERIFIED:
        raise DomainError("strengthened check needs a verified certificate")
    if not isinstance(cert.params, BGParams):
        raise DomainError(
            "strengthened check needs a weak (r0, C, K) certificate")
    r0 = cert.params.r0
    C = float(cert.params.C)
    K = float(cert.params.K)
    D = rational(D)
    expo = math.log(C) / math.log(2.0)
    pairs = [(rational(r), rational(R)) for r, R in pairs]
    counting = measure or CountingOrbitMeasure(action, x)
    # one profile at x, to the largest radius a checked pair reads
    tops = [R for r, R in pairs if 0 < r <= R]
    if tops:
        profile = counting.profile(action.space, x, max(tops))
    results = []
    for r, R in pairs:
        if not (0 < r <= R):
            results.append(PairCheck(r, R, "-", None, None, None,
                                     note="skipped: needs 0 < r <= R"))
            continue
        ratio_R = float(R) / float(r)
        if r >= 2 * r0:
            rhs = (C * (1.0 + 2.0 * ratio_R) ** expo
                   * math.exp(K * (float(R) + float(r) / 2.0)))
            results.append(pair_check(r, R, "open-ratio(i)",
                                      profile.ratio(R, r), rhs))
        else:
            rhs = (C * ((1.0 + float(D) / float(r0)) * (1.0 + 2.0 * ratio_R)) ** expo
                   * math.exp(K * float(D + r0) * (1.0 + 2.0 * ratio_R)))
            results.append(pair_check(r, R, "closed-ratio(ii)",
                                      profile.ratio(R, r, closed=True), rhs))
        if r <= r0 and r < R:
            pack = packing.packing_count(action.space, x, r, R, mode="exact",
                                         cap=STRENGTHENED_PACK_CAP)
            rhs = (C * ((1.0 + float(D) / float(r0)) * ratio_R) ** expo
                   * math.exp(K * float(D + r0) * ratio_R))
            results.append(pair_check(r, R, "packing(iii)", pack.count, rhs))
    return results


# ---------------------------------------------------------------------------
# Concentric-ball bounds for actions on hyperbolic-like spaces
# ---------------------------------------------------------------------------


def cocompact_bg_check(action, x, delta, D, K, pairs, measure=None) -> list:
    """Concentric-ball ratio bounds under (delta, D, K) inputs.

    For each sampled (r, R):
      * invariant-measure form, needs r >= (5/2)(7D + 4 delta):
          ratio(R vs r) <= 3 e^{KD} (R/r)^{25/4 + 6KD} e^{6K(R - 4r/5)}
      * orbit-counting doubling form, needs r >= 10(D + delta):
          ratio(2r vs r) <= 81 e^{(13/2) K r}
        and for R >= r the tail form 3 (R/r)^{25/4} e^{6K(R - 4r/5)}.
    Conservative ratio convention: closed numerator over open denominator.
    Pairs below the scale threshold, and invariant pairs with R <= r, are
    skipped with a notice.
    """
    from .curvature import PairCheck, pair_check
    delta, D = rational(delta), rational(D)
    D_f = float(D)
    K = float(K)
    if not math.isfinite(K):
        raise DomainError("exponent K must be finite")
    scale_i = Fraction(5, 2) * (7 * D + 4 * delta)
    scale_ii = 10 * (D + delta)
    pairs = [(rational(r), rational(R)) for r, R in pairs]
    # one profile per measure at x, to the largest radius a checked pair reads
    counting = CountingOrbitMeasure(action, x)
    space = action.space
    tops = [R for r, R in pairs if R > r >= scale_i]
    if measure is not None and tops:
        invariant = measure.profile(space, x, max(tops))
    tops = [max(2 * r, R) for r, R in pairs if r >= scale_ii]
    if tops:
        orbit = counting.profile(space, x, max(tops))
    out = []
    for r, R in pairs:
        if measure is not None:
            if R > r >= scale_i:
                rhs = (3.0 * math.exp(K * D_f)
                       * float(R / r) ** (25.0 / 4.0 + 6.0 * K * D_f)
                       * math.exp(6.0 * K * (float(R) - 0.8 * float(r))))
                out.append(pair_check(r, R, "invariant(i)",
                                      invariant.ratio(R, r, closed=True), rhs))
            else:
                note = ("skipped: r below (5/2)(7D+4delta)" if r < scale_i
                        else "skipped: R <= r")
                out.append(PairCheck(r, R, "invariant(i)", None, None, None,
                                     note=note))
        if r >= scale_ii:
            rhs = 3.0 ** 4 * math.exp(6.5 * K * float(r))
            out.append(pair_check(r, 2 * r, "counting-doubling(ii)",
                                  orbit.ratio(2 * r, r, closed=True), rhs))
            if R >= r:
                rhs = (3.0 * float(R / r) ** (25.0 / 4.0)
                       * math.exp(6.0 * K * (float(R) - 0.8 * float(r))))
                out.append(pair_check(r, R, "counting-tail(ii)",
                                      orbit.ratio(R, r, closed=True), rhs))
        else:
            out.append(PairCheck(r, 2 * r, "counting-doubling(ii)", None,
                                 None, None,
                                 note="skipped: r below 10(D+delta)"))
    return out


# ---------------------------------------------------------------------------
# The systole, diastole, thin-set, margulis and short-gens subcommands
# ---------------------------------------------------------------------------


def _sample(inp, raw):
    """The points of a semicolon-separated --sample list, or the default
    point alone when none is given."""
    return [inp.point(p) for p in (raw.split(";") if raw else [None])]


def _systole(args, inp):
    from .reports import Report
    want = args.command
    sample = _sample(inp, args.sample)
    rep_s = systole(inp.action, sample, ceiling=args.ceiling)
    headline = rep_s.systole if want == "systole" else rep_s.diastole
    return Report(
        params={"sample_size": len(sample)},
        result={"systole": rep_s.systole, "diastole": rep_s.diastole,
                "torsion_free_systole": rep_s.torsion_free_systole,
                "torsion_free_diastole": rep_s.torsion_free_diastole,
                "per_point": [(p.point, p.systole, p.torsion_free_systole)
                             for p in rep_s.per_point]},
        summary=f"{want}: {headline}",
        assumptions=(["sample-based statistics over the listed points"]
                    + rep_s.warnings))


def _thin_set(args, inp):
    from .reports import Report
    sample = [inp.point(raw) for raw in args.sample.split(";")]
    adjacency = {p: [] for p in sample}
    for i, p in enumerate(sample):
        for q in sample[i + 1:]:
            if inp.space.distance(p, q) <= rational(args.adjacency):
                adjacency[p].append(q)
                adjacency[q].append(p)
    rep_t = thin_set(inp.action, rational(args.r), sample, adjacency,
                     ceiling=args.ceiling)
    return Report(
        params={"r": rational(args.r), "adjacency": rational(args.adjacency)},
        result={"verdict": rep_t.verdict,
                "torsion_free_verdict": rep_t.torsion_free_verdict,
                "membership": [(p, m) for p, m in rep_t.membership.items()]},
        summary=f"thin-set: {rep_t.verdict}")


def _margulis(args, inp):
    from .reports import Report
    pts = margulis_estimate(inp.action, _sample(inp, args.sample),
                            ceiling=rational(args.ceiling))
    return Report(
        params={"ceiling": rational(args.ceiling)},
        result={"per_point": [(p.point, p.estimate, p.attained,
                              p.provenance) for p in pts],
                "entropy_margulis_constant": "alpha0(delta0,H0)"},
        summary=(f"margulis: min estimate "
                 f"{min(float(p.estimate) for p in pts):.6g}"),
        assumptions=["the entropy-Margulis constant alpha0(delta0,H0) has no "
                    "published value and is reported symbolically only"])


def _short_gens(args, inp):
    from .reports import Report
    res = short_generators(inp.action, inp.point(args.center),
                           rational(args.R))
    status = "ok" if (res.reach_ok and res.separation_ok) else "violated"
    return Report(
        params={"R": rational(args.R)},
        result={"count": len(res.elements),
                "codiameter": res.codiameter,
                "index_verdict": res.index_verdict, "index": res.index,
                "orbit_points": res.orbit_points[:100]},
        summary=(f"short-gens: {len(res.elements)} generators, "
                 f"index {res.index or res.index_verdict}"),
        status=status)
