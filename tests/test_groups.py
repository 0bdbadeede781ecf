import random

import pytest

from bgkit.exact import DomainError
from bgkit.groups import (FinitePermutationFamily, FreeAbelianFamily,
                          FreeFamily, ProductFamily, StallingsGraph,
                          TrivialFamily, family_from_spec)


def test_free_reduction_and_inverse():
    f = FreeFamily(2)
    a, b = (1,), (2,)
    word = f.multiply(f.multiply(a, b), f.inverse(b))
    assert word == a
    assert f.multiply(word, f.inverse(word)) == ()
    assert f.word_length(f.multiply(a, f.multiply(b, a))) == 3


def test_free_sphere_sizes():
    f = FreeFamily(2)
    assert f.sphere_sizes(3) == [1, 4, 12, 36]
    assert sum(f.sphere_sizes(3)) == 53
    assert sum(FreeFamily(1).sphere_sizes(4)) == 9   # Z in disguise


def test_free_subgroup_classification():
    f = FreeFamily(2)
    a, b = (1,), (2,)
    assert f.subgroup_virtually_nilpotent([a, f.multiply(a, a)]) is True
    assert f.subgroup_virtually_nilpotent([a, b]) is False
    assert f.subgroup_virtually_nilpotent([()]) is True


def test_abelian_family():
    z2 = FreeAbelianFamily(2)
    assert z2.word_length((3, -4)) == 7
    assert z2.sphere_sizes(2) == [1, 4, 8]
    assert sum(z2.sphere_sizes(3)) == 25
    assert z2.subgroup_virtually_nilpotent([(5, 0), (0, 5)]) is True


def convolved_sphere_sizes(rank, radius):
    """l1 sphere sizes of Z^rank by convolving the 1-dimensional sizes
    (1, 2, 2, ...) rank times, truncated at `radius`."""
    sizes = [1] + [0] * radius
    for _ in range(rank):
        sizes = [sum(sizes[i] * (1 if n == i else 2) for i in range(n + 1))
                 for n in range(radius + 1)]
    return sizes


def test_abelian_sphere_sizes_match_convolution():
    for rank in range(5):
        family = FreeAbelianFamily(rank)
        for radius in range(31):
            assert family.sphere_sizes(radius) == \
                convolved_sphere_sizes(rank, radius)
    # a fresh list per call: a caller may mutate what it gets
    z3 = FreeAbelianFamily(3)
    z3.sphere_sizes(4).append(0)
    assert z3.sphere_sizes(4) == [1, 6, 18, 38, 66]


def test_finite_permutation_family():
    # symmetric group on 3 letters from a transposition and a 3-cycle
    s3 = FinitePermutationFamily([(1, 0, 2), (1, 2, 0)])
    assert len(s3.elements()) == 6
    assert not s3.is_infinite_order((1, 0, 2))
    assert s3.subgroup_virtually_nilpotent(s3.elements()) is True
    with pytest.raises(DomainError):
        FinitePermutationFamily([(0, 0, 1)])


def test_product_family():
    prod = ProductFamily([FreeAbelianFamily(1), FreeFamily(2)])
    e = prod.identity()
    g = ((3,), (1, 2))
    assert prod.word_length(g) == 5
    assert prod.is_infinite_order(((0,), (1,)))
    assert prod.is_infinite_order(((1,), ()))
    assert not prod.is_infinite_order(e)
    # projections decide: commuting free parts keep it virtually nilpotent
    assert prod.subgroup_virtually_nilpotent([((1,), (1,)), ((0,), (1, 1))]) is True
    assert prod.subgroup_virtually_nilpotent([((1,), (1,)), ((0,), (2,))]) is False
    # product ball counts convolve: compare against brute-force closure
    spheres = prod.sphere_sizes(3)
    assert spheres[0] == 1
    assert spheres[1] == 2 + 4


def test_trivial_family():
    t = TrivialFamily()
    assert t.identity() == ()
    assert sum(t.sphere_sizes(5)) == 1


def _random_elements(family, rng, count=25, steps=9):
    """Seeded random walks over the standard generators."""
    gens = [g for _, g in family.generators()]
    out = []
    for _ in range(count):
        element = family.identity()
        for _ in range(rng.randint(0, steps) if gens else 0):
            element = family.multiply(element, rng.choice(gens))
        out.append(element)
    return out


@pytest.mark.parametrize("family", [
    TrivialFamily(), FreeFamily(1), FreeFamily(3), FreeAbelianFamily(1),
    FreeAbelianFamily(3),
    FinitePermutationFamily([(1, 0, 2, 3), (1, 2, 3, 0)]),
    ProductFamily([FreeAbelianFamily(1), FreeFamily(2)]),
    ProductFamily([FinitePermutationFamily([(1, 2, 0)]), FreeAbelianFamily(2),
                   TrivialFamily()]),
], ids=lambda f: f.name)
def test_word_distance_is_length_of_quotient(family):
    rng = random.Random(17)
    elements = _random_elements(family, rng)
    for a in elements:
        for b in elements:
            expected = family.word_length(family.multiply(family.inverse(a), b))
            got = family.word_distance(a, b)
            assert type(got) is int and got == expected


def test_family_from_spec():
    assert isinstance(family_from_spec({"family": "free", "params": 2}), FreeFamily)
    prod = family_from_spec({"family": "product", "params": [
        {"family": "free_abelian", "params": 1}, {"family": "free", "params": 2}]})
    assert isinstance(prod, ProductFamily)
    with pytest.raises(DomainError):
        family_from_spec({"family": "nope"})


def test_stallings_membership():
    f = FreeFamily(2)
    a, b = (1,), (2,)
    # subgroup generated by a^2 and b
    graph = StallingsGraph(f, [f.multiply(a, a), b])
    assert graph.contains(f.multiply(a, a))
    assert graph.contains(b)
    assert graph.contains(f.multiply(f.multiply(a, a), b))
    assert not graph.contains(a)
    assert not graph.contains(f.multiply(a, b))
    # index-2 subgroup: every even-a-exponent word is in
    word = f.multiply(f.multiply(b, f.multiply(a, a)), f.inverse(b))
    assert graph.contains(word)


def test_is_element_accepts_canonical_forms_only():
    free = FreeFamily(2)
    assert free.is_element(()) and free.is_element((1, -2, 1))
    for bad in ((0,), (3,), (1, -1), [1], "[0", (1.0,), (True,)):
        assert not free.is_element(bad), bad
    lattice = FreeAbelianFamily(2)
    assert lattice.is_element((0, -3))
    for bad in ((1, 2, 3), (1,), [1, 2], (1, "2"), (0.5, 0)):
        assert not lattice.is_element(bad), bad
    assert TrivialFamily().is_element(())
    assert not TrivialFamily().is_element((0,))
    perm = FinitePermutationFamily([(1, 2, 0)])
    assert perm.is_element((2, 0, 1))
    for bad in ((1, 0, 2), (0, 1), ((),), [0, 1, 2]):
        assert not perm.is_element(bad), bad
    prod = ProductFamily([free, lattice])
    assert prod.is_element(((1,), (0, 2)))
    for bad in (((1,), (0,)), ((1, -1), (0, 0)), ((1,),), [(), (0, 0)]):
        assert not prod.is_element(bad), bad
