"""Finite permutation groups and direct products of group families.

`groups.family_from_spec` imports this module only for the
finite_permutation and product kinds, and `probes` where it decides the
index of a subgroup of a permutation group, so a process on a free,
free-abelian or trivial family never compiles it.  Elements are canonical
tuples, as in `groups`: the image tuple of a permutation of {0..m-1}, and
the tuple of component forms of a product element.
"""

from __future__ import annotations

from .exact import DomainError
from .groups import GroupFamily


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
