"""Proper isometric group actions.

An action binds a built-in group family to one of the space variants by an
explicit rule (left translation on a Cayley graph, lattice translation,
glued-line shift, vertex permutation, deck transformation).  Every orbit
scan passes `spaces.check_ball`, the gate of every measure.  Orbit
displacements come out as a `measures.DistanceProfile`, from sphere sizes
where the word metric gives them (read by `spaces.read_spheres`) and from
enumeration otherwise.  The
invariants probed through an action (displacement sets, systoles, thin
sets, Margulis scans, short generating families and the strengthened
concentric-ball checks) live in `probes`, which only their subcommands
import.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

from . import groups, spaces
from .exact import DomainError, WindowError, rational
from .measures import DistanceProfile, sphere_profile

# a ball total at which no ball from half its word length on has a count
# that CPython can print (`exact.fmt_rational`): B(a + b) <= B(a) B(b) in a
# word metric, so B(n) >= P**2 gives B(m) >= P for every m >= n / 2
_UNPRINTABLE = 10 ** (2 * sys.int_info.default_max_str_digits)


def _sphere_sizes(family, n):
    """The family's sphere sizes at lengths 0..n, or 0..m for the first
    length m read whose sphere is empty (every later one is empty too), so
    a finite family answers at any length.  The sizes come from
    `spaces.read_spheres`, where no element budget applies, since a profile
    holds counts.  WindowError past `spaces.SPHERE_LIMIT` lengths (at once
    for a family with a generator of infinite order), and at a ball total
    of _UNPRINTABLE or more."""
    limit = spaces.SPHERE_LIMIT
    if n > limit and spaces.has_infinite_order(family):
        raise WindowError(
            f"a profile of {family.name} to word length {n} reads more than "
            f"{limit} sphere sizes", required=n, available=limit)
    sizes = spaces.read_spheres(family, n, _UNPRINTABLE)
    if sum(sizes) >= _UNPRINTABLE:
        raise WindowError(
            f"the ball of word length {len(sizes) - 1} in {family.name} "
            f"holds 10^{2 * sys.int_info.default_max_str_digits} elements or "
            "more, so no ball mass from half that length on can be printed")
    if len(sizes) <= n and sizes[-1]:
        raise WindowError(
            f"the spheres of {family.name} are not empty by word length "
            f"{limit}, the most a profile reads", required=n, available=limit)
    return sizes


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
        exceed `spaces.ENUMERATION_BUDGET`.
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
        spheres = _sphere_sizes(self.family, math.floor(upto))
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
                if len(rows) > spaces.ENUMERATION_BUDGET:
                    raise WindowError(
                        "orbit budget exceeded", required=len(rows),
                        available=spaces.ENUMERATION_BUDGET)
        return rows

    def displacement_profile(self, base, center, upto):
        if self._scale is not None and base == center:
            spheres = _sphere_sizes(self.family,
                                    math.floor(upto / self._scale))
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
    """A finite permutation family (`permutations.FinitePermutationFamily`)
    permuting the points of a finite space."""

    rule = "permutation"

    def __init__(self, family, space, labels=None):
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
        if not isinstance(space, spaces.CayleySpace):
            raise DomainError(f"left_translation acts on a Cayley space, "
                              f"not on a {space.kind} space")
        family = groups.family_from_spec(spec["group"])
        if ((family.name, family.generators())
                != (space.family.name, space.family.generators())):
            other = (" (other generators)" if family.name == space.family.name
                     else "")
            raise DomainError(
                f"left_translation group {family.name} is not the group "
                f"{space.family.name} of the Cayley space it acts on{other}")
        return LeftTranslationAction(space.family, space)
    if rule == "lattice_translation":
        if not isinstance(space, spaces.CayleySpace):
            raise DomainError(f"lattice_translation acts on a Cayley space, "
                              f"not on a {space.kind} space")
        return LatticeTranslationAction(space, spec["matrix"])
    if rule == "glued_line_shift":
        if not isinstance(space, spaces.GluedLineSpace):
            raise DomainError(f"glued_line_shift acts on a glued_line space, "
                              f"not on a {space.kind} space")
        return GluedLineShiftAction(space)
    if rule == "permutation":
        family = groups.family_from_spec(spec["group"])
        return PermutationAction(family, space, labels=spec.get("labels"))
    if rule == "deck":
        raise DomainError("deck actions are built from a cover: "
                          "use universal_cover + DeckAction")
    raise DomainError(f"unknown action rule {rule!r}")
