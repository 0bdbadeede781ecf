"""Built-in group families with canonical element forms.

Elements are plain hashable tuples so that equality of canonical forms is
equality of elements, with no word-problem machinery:

* free(k)          -- reduced words as tuples of nonzero signed letters,
                      letter i in 1..k, sign = inverse;
* free_abelian(k)  -- integer coordinate vectors;
* finite_permutation -- image tuples of permutations of {0..m-1};
* product          -- tuples of component canonical forms.

Each family also answers the two questions the curvature/systole layer
needs and that are undecidable for general groups but easy per family:
whether a finitely generated subgroup is virtually nilpotent, and whether
a single element has infinite order.
"""

from __future__ import annotations

import itertools
import math
import operator

from .exact import DomainError


class GroupFamily:
    """Common interface; concrete families override everything they support."""

    name = "abstract"

    def identity(self):
        raise NotImplementedError

    def generators(self):
        """Symmetric generating set as a list of (label, element)."""
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def word_length(self, a) -> int:
        """Length of a in the standard generators."""
        raise NotImplementedError

    def word_distance(self, a, b) -> int:
        """Word length of a^-1 b: the Cayley-graph distance from a to b."""
        return self.word_length(self.multiply(self.inverse(a), b))

    def distances_to(self, points, x) -> list:
        """[word_distance(p, x) for p in points]: one row of Cayley-graph
        distances to x, from which a Cayley space reads every int row."""
        word_distance = self.word_distance
        return [word_distance(p, x) for p in points]

    def is_element(self, a) -> bool:
        """True when `a` is an element written in its canonical form."""
        raise NotImplementedError

    def sphere_sizes(self, radius: int):
        """[#{g : |g| = i} for i in 0..radius], exact, in closed form."""
        raise NotImplementedError

    def is_infinite_order(self, a) -> bool:
        raise NotImplementedError

    def subgroup_virtually_nilpotent(self, gens):
        """True/False by family rule, or None when the family cannot decide."""
        return None

    def serialize(self, a) -> str:
        return repr(a)


class TrivialFamily(GroupFamily):
    name = "trivial"

    def identity(self):
        return ()

    def generators(self):
        return []

    def multiply(self, a, b):
        return ()

    def inverse(self, a):
        return ()

    def word_length(self, a):
        return 0

    def is_element(self, a):
        return a == ()

    def sphere_sizes(self, radius):
        return [1] + [0] * radius

    def is_infinite_order(self, a):
        return False

    def subgroup_virtually_nilpotent(self, gens):
        return True


class FreeFamily(GroupFamily):
    """Free group of rank k; elements are reduced words over signed letters."""

    def __init__(self, rank: int):
        if rank < 0:
            raise DomainError("free rank must be >= 0")
        self.rank = rank
        self.name = f"free({rank})"

    def identity(self):
        return ()

    def generators(self):
        gens = []
        for i in range(1, self.rank + 1):
            gens.append((f"a{i}", (i,)))
            gens.append((f"a{i}^-1", (-i,)))
        return gens

    def multiply(self, a, b):
        word = list(a)
        for letter in b:
            if word and word[-1] == -letter:
                word.pop()
            else:
                word.append(letter)
        return tuple(word)

    def inverse(self, a):
        return tuple(-letter for letter in reversed(a))

    def word_length(self, a):
        return len(a)

    def word_distance(self, a, b):
        # a^-1 b cancels exactly the common prefix of the reduced words
        common = 0
        for x, y in zip(a, b):
            if x != y:
                break
            common += 1
        return len(a) + len(b) - 2 * common

    def is_element(self, a):
        # a reduced word over the letters +-1..+-rank
        return (isinstance(a, tuple)
                and all(type(x) is int and 1 <= abs(x) <= self.rank
                        for x in a)
                and all(x != -y for x, y in zip(a, a[1:])))

    def sphere_sizes(self, radius):
        # 2k(2k-1)^(i-1) reduced words of length i >= 1.
        k = self.rank
        if k == 0:
            return [1] + [0] * radius
        sizes = [1]
        for i in range(1, radius + 1):
            sizes.append(2 * k if i == 1 else sizes[-1] * (2 * k - 1))
        return sizes

    def is_infinite_order(self, a):
        return len(a) > 0

    def subgroup_virtually_nilpotent(self, gens):
        # In a free group two elements either commute (common cyclic root)
        # or generate a rank-2 free subgroup; a finitely generated subgroup
        # is virtually nilpotent iff it is cyclic iff the generators commute
        # pairwise (the identity commutes with every element).  The one home
        # of the rule: the free deck group of a cover reads it too.
        return all(self.multiply(a, b) == self.multiply(b, a)
                   for a, b in itertools.combinations(gens, 2))

    def serialize(self, a):
        return "." .join(str(letter) for letter in a) if a else "e"


class FreeAbelianFamily(GroupFamily):
    """Z^k with the standard generators; word length is the l1 norm."""

    def __init__(self, rank: int):
        if rank < 0:
            raise DomainError("free-abelian rank must be >= 0")
        self.rank = rank
        self.name = f"free_abelian({rank})"

    def identity(self):
        return (0,) * self.rank

    def generators(self):
        gens = []
        for i in range(self.rank):
            unit = tuple(1 if j == i else 0 for j in range(self.rank))
            gens.append((f"e{i + 1}", unit))
            gens.append((f"e{i + 1}^-1", tuple(-x for x in unit)))
        return gens

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def word_length(self, a):
        return sum(abs(x) for x in a)

    def word_distance(self, a, b):
        return sum(map(abs, map(operator.sub, a, b)))

    def distances_to(self, points, x):
        # the l1 norm built one coordinate column at a time, at C speed
        total = None
        for column, c in zip(zip(*points), x):
            dist = map(abs, map(operator.sub, column, itertools.repeat(c)))
            total = list(dist) if total is None else list(map(operator.add,
                                                              total, dist))
        return [0] * len(points) if total is None else total

    def is_element(self, a):
        return (isinstance(a, tuple) and len(a) == self.rank
                and all(type(x) is int for x in a))

    def sphere_sizes(self, radius):
        # #{v in Z^k : |v|_1 = n} = sum_i 2^i C(k, i) C(n - 1, i - 1) for
        # n >= 1: choose the i nonzero coordinates, their signs, and a
        # composition of n into i positive parts.
        k = self.rank
        sizes = [1] + [0] * radius
        for i in range(1, min(k, radius) + 1):
            choices = 2 ** i * math.comb(k, i)
            for n in range(i, radius + 1):
                sizes[n] += choices * math.comb(n - 1, i - 1)
        return sizes

    def is_infinite_order(self, a):
        return any(x != 0 for x in a)

    def subgroup_virtually_nilpotent(self, gens):
        return True

    def serialize(self, a):
        return ",".join(str(x) for x in a)


class FinitePermutationFamily(GroupFamily):
    """Finite permutation group given by generating permutations of {0..m-1}."""

    def __init__(self, generating_perms):
        perms = [tuple(p) for p in generating_perms]
        if not perms:
            raise DomainError("need at least one generating permutation")
        m = len(perms[0])
        for p in perms:
            if sorted(p) != list(range(m)):
                raise DomainError(f"not a permutation of 0..{m - 1}: {p}")
        self.degree = m
        self.perm_gens = perms
        self.name = f"finite_permutation(deg={m})"
        self._lengths = None

    def identity(self):
        return tuple(range(self.degree))

    def generators(self):
        gens = []
        for idx, p in enumerate(self.perm_gens):
            gens.append((f"p{idx + 1}", p))
            inv = self.inverse(p)
            if inv != p:
                gens.append((f"p{idx + 1}^-1", inv))
        return gens

    def multiply(self, a, b):
        # (a*b)(x) = a(b(x)): right factor acts first.
        return tuple(a[b[i]] for i in range(self.degree))

    def inverse(self, a):
        inv = [0] * self.degree
        for i, image in enumerate(a):
            inv[image] = i
        return tuple(inv)

    def _closure(self):
        if self._lengths is None:
            lengths = {self.identity(): 0}
            frontier = [self.identity()]
            gens = [g for _, g in self.generators()]
            while frontier:
                nxt = []
                for el in frontier:
                    for g in gens:
                        prod = self.multiply(el, g)
                        if prod not in lengths:
                            lengths[prod] = lengths[el] + 1
                            nxt.append(prod)
                frontier = nxt
            self._lengths = lengths
        return self._lengths

    def elements(self):
        return list(self._closure())

    def word_length(self, a):
        lengths = self._closure()
        if a not in lengths:
            raise DomainError("element not in the generated permutation group")
        return lengths[a]

    def is_element(self, a):
        return (isinstance(a, tuple) and all(type(x) is int for x in a)
                and a in self._closure())

    def sphere_sizes(self, radius):
        sizes = [0] * (radius + 1)
        for length in self._closure().values():
            if length <= radius:
                sizes[length] += 1
        return sizes

    def is_infinite_order(self, a):
        return False

    def subgroup_virtually_nilpotent(self, gens):
        return True

    def serialize(self, a):
        return ",".join(str(x) for x in a)


class ProductFamily(GroupFamily):
    """Direct product; the generating set is the union of embedded factors."""

    def __init__(self, factors):
        if not factors:
            raise DomainError("product of zero factors: use trivial")
        self.factors = list(factors)
        self.name = "product(" + ",".join(f.name for f in self.factors) + ")"

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def generators(self):
        gens = []
        for idx, f in enumerate(self.factors):
            for label, g in f.generators():
                element = tuple(
                    g if j == idx else other.identity()
                    for j, other in enumerate(self.factors)
                )
                gens.append((f"f{idx + 1}.{label}", element))
        return gens

    def multiply(self, a, b):
        return tuple(f.multiply(x, y) for f, x, y in zip(self.factors, a, b))

    def inverse(self, a):
        return tuple(f.inverse(x) for f, x in zip(self.factors, a))

    def word_length(self, a):
        return sum(f.word_length(x) for f, x in zip(self.factors, a))

    def is_element(self, a):
        return (isinstance(a, tuple) and len(a) == len(self.factors)
                and all(f.is_element(x) for f, x in zip(self.factors, a)))

    def sphere_sizes(self, radius):
        sizes = [1] + [0] * radius
        for f in self.factors:
            sizes = _convolve_truncated(sizes, f.sphere_sizes(radius), radius)
        return sizes

    def is_infinite_order(self, a):
        return any(f.is_infinite_order(x) for f, x in zip(self.factors, a))

    def subgroup_virtually_nilpotent(self, gens):
        # A subgroup of a finite product is virtually nilpotent iff each of
        # its factor projections is: products of virtually nilpotent groups
        # are virtually nilpotent and the class is closed under subgroups
        # and quotients.
        for idx, f in enumerate(self.factors):
            verdict = f.subgroup_virtually_nilpotent([g[idx] for g in gens])
            if verdict is None:
                return None
            if not verdict:
                return False
        return True

    def serialize(self, a):
        return "|".join(
            f.serialize(x) for f, x in zip(self.factors, a)
        )


def _convolve_truncated(a, b, radius):
    out = [0] * (radius + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(0, radius + 1 - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def family_from_spec(spec) -> GroupFamily:
    """Build a family from the JSON action-file fragment {"family":..,"params":..}."""
    kind = spec.get("family")
    params = spec.get("params")
    if kind == "trivial":
        return TrivialFamily()
    if kind == "free":
        return FreeFamily(int(params))
    if kind == "free_abelian":
        return FreeAbelianFamily(int(params))
    if kind == "finite_permutation":
        return FinitePermutationFamily(params)
    if kind == "product":
        return ProductFamily([family_from_spec(sub) for sub in params])
    raise DomainError(f"unknown group family {kind!r}")

