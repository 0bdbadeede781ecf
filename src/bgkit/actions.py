"""Proper isometric group actions and the invariants built on them.

An action binds a built-in group family to one of the space variants by an
explicit rule (left translation on a Cayley graph, lattice translation,
glued-line shift, vertex permutation, deck transformation).  Every orbit
scan passes `spaces.check_ball`, the gate of every measure.  Orbit
displacements come out as a `measures.DistanceProfile`, from sphere sizes
where the word metric gives them and from enumeration otherwise.  On top
of the exhaustive orbit machinery this module implements displacement sets
Sigma_r(x), systole/diastole statistics, thin sets, Margulis-constant
scans, short generating families and the strengthened concentric-ball
checks.  The bound formulas themselves live in `bounds`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import groups, spaces
from .exact import (DomainError, VERIFIED, WindowError, field, rational,
                    record)
from .measures import CountingOrbitMeasure, DistanceProfile, sphere_profile

ORBIT_BUDGET = 2_000_000
STRENGTHENED_PACK_CAP = 4000    # candidates of each exact packing(iii) count
COSET_BOUND = 20000


class GroupAction:
    """Base: a family acting by isometries on a space."""

    rule = "abstract"

    def __init__(self, family: groups.GroupFamily, space: spaces.Space):
        self.family = family
        self.space = space

    def apply(self, g, point):
        raise NotImplementedError

    def elements_moving_near(self, base, center, radius):
        """Exhaustive [(g, g*base, d(center, g*base))] with distance <= radius.

        Properness of the bundled rules makes this finite.  Every rule
        passes one gate first: `base` must be a point, and
        `spaces.check_ball` makes the refusals of every measure at
        `center`.  WindowError also when the rule's enumeration would
        exceed the orbit budget.
        """
        self.space.check_point(base)
        return self._moving_near(
            base, center, spaces.check_ball(self.space, center, radius))

    def _moving_near(self, base, center, radius):
        """The rule's enumeration behind `elements_moving_near`, for points
        `base` and `center` and a rational radius past its gate."""
        raise NotImplementedError

    def orbit_within(self, x, radius):
        """Sigma-style list [(g, d(x, g*x))], exhaustive, sorted."""
        rows = self.elements_moving_near(x, x, radius)
        out = [(g, d) for g, _p, d in rows]
        out.sort(key=lambda gd: (gd[1], self.family.serialize(gd[0])))
        return out

    def displacement_profile(self, base, center, upto) -> DistanceProfile:
        """Returns a `DistanceProfile` of d(center, g*base) up to `upto`.

        The counting measure's build, for a rational `upto` past the gate
        of `counting_measure(action, base).profile(space, center, upto)`,
        the gated library entry.  Exact; the default builds it from
        enumeration, subclasses override with closed forms where the word
        metric gives them.
        """
        rows = self._moving_near(base, center, upto)
        return DistanceProfile(((d, 1) for _g, _p, d in rows), upto)

    def quotient_diameter(self) -> Fraction:
        """diam of the quotient, exact for each rule that has one."""
        raise NotImplementedError


class LeftTranslationAction(GroupAction):
    """The family acting on its own Cayley graph by left multiplication."""

    rule = "left_translation"

    def __init__(self, family, space=None):
        space = space or spaces.CayleySpace(family)
        if not isinstance(space, spaces.CayleySpace) or space.family is not family:
            raise DomainError("left translation needs the family's own Cayley space")
        super().__init__(family, space)

    def apply(self, g, point):
        return self.family.multiply(g, point)

    def _moving_near(self, base, center, radius):
        # d(center, g*base) = |center^-1 g base|; words w of length <= R are
        # in bijection with such g via g = center * w * base^-1.
        rows = []
        inv_base = self.family.inverse(base)
        for w, d in self.space.ball(self.family.identity(), radius, closed=True):
            g = self.family.multiply(self.family.multiply(center, w), inv_base)
            rows.append((g, self.family.multiply(g, base), d))
        return rows

    def displacement_profile(self, base, center, upto):
        spheres = self.family.sphere_sizes(math.floor(upto))
        return sphere_profile(spheres, 1, upto)

    def quotient_diameter(self):
        return Fraction(0)


class LatticeTranslationAction(GroupAction):
    """Z^k acting on the Z^k lattice by an invertible integer matrix.

    The matrix columns are the translations of the generators; (m Z)^k is
    matrix m*I.  Displacements are l1 norms of lattice vectors.
    """

    rule = "lattice_translation"

    def __init__(self, space: spaces.CayleySpace, matrix):
        if not isinstance(space.family, groups.FreeAbelianFamily):
            raise DomainError("lattice translation acts on a free-abelian Cayley space")
        k = space.family.rank
        self.matrix = [tuple(int(x) for x in col) for col in matrix]
        for col in self.matrix:
            if len(col) != k:
                raise DomainError("translation vectors must live in the lattice")
        if len(self.matrix) != k:
            raise DomainError("non-square lattice matrices are not supported")
        super().__init__(groups.FreeAbelianFamily(k), space)
        self.k = k
        self._scale = self._uniform_scale()
        self._inverse_norm = self._inverse_row_norm()

    def _uniform_scale(self):
        # m when the matrix is exactly m*I, else None.
        m = self.matrix[0][0]
        for i, col in enumerate(self.matrix):
            if any(col[l] != (m if l == i else 0) for l in range(self.k)):
                return None
        return m if m > 0 else None

    def _inverse_row_norm(self):
        # Exact Gauss-Jordan elimination: a missing pivot means A is
        # singular, so the action is not proper.  Otherwise |A g|_1 <= b
        # confines |g|_inf to b times the largest row l1 norm of A^-1.
        n = self.k
        aug = [[Fraction(self.matrix[j][i]) for j in range(n)]
               + [Fraction(int(i == l)) for l in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise DomainError("translation matrix must be injective (proper action)")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    factor = aug[r][col]
                    aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
        return max(sum(abs(aug[r][n + c]) for c in range(n)) for r in range(n))

    def translate(self, g):
        return tuple(sum(self.matrix[i][l] * g[i] for i in range(self.k))
                     for l in range(self.k))

    def apply(self, g, point):
        t = self.translate(g)
        return tuple(p + d for p, d in zip(point, t))

    def _moving_near(self, base, center, radius):
        offset = tuple(b - c for b, c in zip(base, center))
        # |A g + offset|_1 <= R confines g to an explicit box.
        box = int((radius + sum(abs(o) for o in offset)) * self._inverse_norm) + 1
        rows = []
        for g in itertools.product(range(-box, box + 1), repeat=self.k):
            vec = self.translate(g)
            d = Fraction(sum(abs(v + o) for v, o in zip(vec, offset)))
            if d <= radius:
                rows.append((g, tuple(b + v for b, v in zip(base, vec)), d))
                if len(rows) > ORBIT_BUDGET:
                    raise WindowError("orbit budget exceeded",
                                      required=len(rows), available=ORBIT_BUDGET)
        return rows

    def displacement_profile(self, base, center, upto):
        if self._scale is not None and base == center:
            spheres = self.family.sphere_sizes(math.floor(upto / self._scale))
            return sphere_profile(spheres, self._scale, upto)
        return super().displacement_profile(base, center, upto)

    def quotient_diameter(self):
        if self._scale is None:
            raise DomainError(
                "quotient diameter is exact only for lattice matrices m*I")
        # l1 diameter of the k-torus of side m
        return Fraction(self.k * (self._scale // 2))


class GluedLineShiftAction(GroupAction):
    """eps*Z translating the glued line, sending hair k to hair k+g."""

    rule = "glued_line_shift"

    def __init__(self, space: spaces.GluedLineSpace):
        super().__init__(groups.FreeAbelianFamily(1), space)

    def apply(self, g, point):
        shift = g[0]
        if point[0] == "line":
            return ("line", rational(point[1]) + self.space.eps * shift)
        return ("hair", point[1] + shift, point[2])

    def _moving_near(self, base, center, radius):
        # Every image inside the window is one of these shifts, and the
        # gate keeps each image within `radius` of `center` inside it.
        window = self.space.window
        rows = []
        for shift in range(-2 * window, 2 * window + 1):
            g = (shift,)
            p = self.apply(g, base)
            if self.space.is_point(p):
                d = self.space.distance(center, p)
                if d <= radius:
                    rows.append((g, p, d))
        return rows

    def quotient_diameter(self):
        # fundamental domain: one eps-cell plus its hair
        return (self.space.eps + self.space.hair * 2) / 2


class PermutationAction(GroupAction):
    """A finite permutation family permuting the points of a finite space."""

    rule = "permutation"

    def __init__(self, family: groups.FinitePermutationFamily, space,
                 labels=None):
        super().__init__(family, space)
        self.labels = list(labels) if labels is not None else list(space.support())
        if len(self.labels) != family.degree:
            raise DomainError("permutation degree does not match point count")
        self._pos = {lab: i for i, lab in enumerate(self.labels)}

    def apply(self, g, point):
        return self.labels[g[self._pos[point]]]

    def _moving_near(self, base, center, radius):
        rows = []
        for g in self.family.elements():
            p = self.apply(g, base)
            d = self.space.distance(center, p)
            if d <= radius:
                rows.append((g, p, d))
        return rows

    def quotient_diameter(self):
        pts = list(self.space.support())
        best = Fraction(0)
        for a in pts:
            for b in pts:
                dq = min(self.space.distance(a, self.apply(g, b))
                         for g in self.family.elements())
                best = max(best, dq)
        return best


def action_from_spec(spec: dict, space: spaces.Space) -> GroupAction:
    """Build an action from the JSON fragment {"group": .., "action": ..}."""
    rule = spec.get("action")
    if rule == "left_translation":
        family = groups.family_from_spec(spec["group"])
        if not isinstance(space, spaces.CayleySpace):
            return LeftTranslationAction(family)
        if ((family.name, family.generators())
                != (space.family.name, space.family.generators())):
            other = (" (other generators)" if family.name == space.family.name
                     else "")
            raise DomainError(
                f"left_translation group {family.name} is not the group "
                f"{space.family.name} of the Cayley space it acts on{other}")
        return LeftTranslationAction(space.family, space)
    if rule == "lattice_translation":
        return LatticeTranslationAction(space, spec["matrix"])
    if rule == "glued_line_shift":
        return GluedLineShiftAction(space)
    if rule == "permutation":
        family = groups.family_from_spec(spec["group"])
        return PermutationAction(family, space, labels=spec.get("labels"))
    if rule == "deck":
        raise DomainError("deck actions are built from a cover: "
                          "use universal_cover + DeckAction")
    raise DomainError(f"unknown action rule {rule!r}")


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
    exactly on the output; finite-index evidence comes from coset closure up
    to `COSET_BOUND` cosets when a membership oracle exists for the family.
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
    verdict, index = _finite_index_evidence(action, elements)
    return ShortGeneratorsResult(elements=elements, orbit_points=chosen_points,
                                 separation_ok=separation_ok, reach_ok=reach_ok,
                                 index_verdict=verdict, index=index,
                                 codiameter=D)


def _subgroup_membership_oracle(family, gens):
    gens = [g for g in gens if g != family.identity()]
    if isinstance(family, groups.TrivialFamily):
        return lambda g: g == family.identity()
    if isinstance(family, groups.FreeAbelianFamily):
        basis = _integer_row_basis([list(g) for g in gens], family.rank)
        return lambda g: _in_integer_span(basis, list(g))
    if isinstance(family, groups.FinitePermutationFamily):
        sub = groups.FinitePermutationFamily(gens or [family.identity()])
        members = set(sub.elements())
        return lambda g: g in members
    if isinstance(family, groups.FreeFamily):
        graph = groups.StallingsGraph(family, gens)
        return graph.contains
    return None


def _finite_index_evidence(action, gens):
    family = action.family
    member = _subgroup_membership_oracle(family, gens)
    if member is None:
        return "inconclusive", None
    reps = [family.identity()]
    frontier = [family.identity()]
    ambient = [g for _, g in family.generators()]
    while frontier:
        nxt = []
        for rep in frontier:
            for s in ambient:
                cand = family.multiply(rep, s)
                if any(member(family.multiply(cand, family.inverse(r)))
                       for r in reps):
                    continue
                reps.append(cand)
                nxt.append(cand)
                if len(reps) > COSET_BOUND:
                    return "inconclusive", None
        frontier = nxt
    return "verified up to bound", len(reps)


def _integer_row_basis(rows, rank):
    # fraction-free row echelon over Z (enough for desk-scale membership)
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


def _in_integer_span(basis, vec):
    vec = list(vec)
    for b in basis:
        pivot = next(i for i, x in enumerate(b) if x)
        if vec[pivot] % b[pivot] == 0:
            q = vec[pivot] // b[pivot]
            vec = [x - q * y for x, y in zip(vec, b)]
        elif vec[pivot] != 0:
            return False
    return not any(vec)


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
    # imported here, so that `import bgkit.actions` does not load curvature
    # and packing; only this check needs them
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
