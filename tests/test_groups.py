import itertools
import math
import random

import pytest

from bgkit.exact import DomainError
from bgkit.groups import (FinitePermutationFamily, FreeAbelianFamily,
                          FreeFamily, ProductFamily, TrivialFamily,
                          family_from_spec)
from bgkit import probes
from bgkit.probes import StallingsGraph


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


def test_stallings_index():
    f = FreeFamily(2)
    a, b = (1,), (2,)
    aa = f.multiply(a, a)
    conj = f.multiply(f.multiply(a, b), f.inverse(a))
    # the kernel of the map onto Z/2 that counts a's has rank 3, by
    # Schreier's formula 1 + 2(2 - 1): <a^2, b, a b a^-1> is it, of index 2
    assert StallingsGraph(f, [aa, b, conj]).index() == 2
    assert StallingsGraph(f, [a, b]).index() == 1
    # rank 2 < 3, so <a^2, b> has infinite index: its graph's second vertex
    # has no b edge
    assert StallingsGraph(f, [aa, b]).index() is None
    assert StallingsGraph(f, [aa, f.multiply(b, b)]).index() is None
    assert StallingsGraph(f, [conj]).index() is None
    assert StallingsGraph(f, []).index() is None
    assert StallingsGraph(FreeFamily(1), [(1, 1, 1)]).index() == 3
    assert StallingsGraph(FreeFamily(0), []).index() == 1


def test_subgroup_index_of_the_other_families():
    assert probes._subgroup_index(TrivialFamily(), []) == ("finite", 1)
    assert probes._subgroup_index(FreeAbelianFamily(0), []) == ("finite", 1)
    prod = ProductFamily([FreeFamily(1), FreeAbelianFamily(1)])
    assert probes._subgroup_index(prod, [((1,), (0,))]) == ("inconclusive",
                                                              None)


def _multigraph_fold(gens):
    """Oracle for `StallingsGraph`: the generators as loops at vertex 0 of
    an edge list, with each edge's inverse, folded with union-find until
    no vertex has two edges with one letter.  Returns the folded moves
    {(vertex, letter): vertex}, the vertex of 0 and the vertex set."""
    edges, size = [], 1
    for word in gens:
        if word:
            path = [0, *range(size, size + len(word) - 1), 0]
            size += len(word) - 1
            for a, letter, b in zip(path, word, path[1:]):
                edges += [(a, letter, b), (b, -letter, a)]
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    merged = True
    while merged:
        merged, moves = False, {}
        for a, letter, b in edges:
            seen = find(moves.setdefault((find(a), letter), find(b)))
            if seen != find(b):
                parent[find(b)] = seen
                merged = True
    return moves, find(0), {find(v) for v in range(size)}


def _oracle_contains(moves, root, word):
    node = root
    for letter in word:
        node = moves.get((node, letter))
        if node is None:
            return False
    return node == root


def _fold_index(rank, gens):
    """The index by the multigraph fold: its vertex count when every vertex
    has all 2k letters, else None (infinite)."""
    moves, _root, vertices = _multigraph_fold(gens)
    letters = [x for x in range(-rank, rank + 1) if x]
    if all((v, x) in moves for v in vertices for x in letters):
        return len(vertices)
    return None


def _coset_count(family, member, bound):
    """The index by closure: the right cosets H g reached from H by the
    family's generators, two of them equal when g r^-1 is in H by
    `member`.  None once more than `bound` cosets are found."""
    reps = [family.identity()]
    frontier = list(reps)
    ambient = [g for _, g in family.generators()]
    while frontier:
        nxt = []
        for rep in frontier:
            for s in ambient:
                cand = family.multiply(rep, s)
                if not any(member(family.multiply(cand, family.inverse(r)))
                           for r in reps):
                    reps.append(cand)
                    nxt.append(cand)
                    if len(reps) > bound:
                        return None
        frontier = nxt
    return len(reps)


def _as_verdict(index):
    return ("infinite", None) if index is None else ("finite", index)


def _reduced_words(rank, length):
    words, frontier = [()], [()]
    for _ in range(length):
        frontier = [w + (x,) for w in frontier
                    for x in range(-rank, rank + 1)
                    if x and not (w and w[-1] == -x)]
        words += frontier
    return words


def _random_gens(rank, rng):
    letters = [x for x in range(-rank, rank + 1) if x]
    gens = []
    for _ in range(rng.randint(1, 4)):
        word = ()
        for _ in range(rng.randint(1, 3)):
            word = FreeFamily(rank).multiply(word, (rng.choice(letters),))
        gens.append(word)
    return gens


def test_stallings_keeps_loops_that_share_a_letter():
    # the 12 reduced words of length 2 in free2 leave vertex 0 by shared
    # letters; they generate the even-length words, of index 2
    f = FreeFamily(2)
    words = [w for w in _reduced_words(2, 2) if len(w) == 2]
    assert len(words) == 12 and _fold_index(2, words) == 2
    assert StallingsGraph(f, words).index() == 2
    assert probes._subgroup_index(f, words) == ("finite", 2)


@pytest.mark.parametrize("rank, seed", [(2, 0), (3, 1)])
def test_stallings_index_matches_a_multigraph_fold(rank, seed):
    # two oracles on the same word sets: the multigraph fold's vertex
    # count, and a coset closure over the fold's membership, which passes
    # any bound exactly when the index is infinite
    rng = random.Random(seed)
    f = FreeFamily(rank)
    bound = 12
    for _ in range(150):
        gens = _random_gens(rank, rng)
        index = StallingsGraph(f, gens).index()
        assert index == _fold_index(rank, gens), gens
        assert probes._subgroup_index(f, gens) == _as_verdict(index), gens
        moves, root, _vertices = _multigraph_fold(gens)
        closure = _coset_count(
            f, lambda w: _oracle_contains(moves, root, w), bound)
        assert closure == (index if index is not None and index <= bound
                           else None), gens


def _stabilizer(rank, m, rng):
    """A random action of free(rank) on 0..m-1, each letter a permutation:
    (the image of 0 under a word, the size of the orbit of 0, and the
    generators of the stabilizer of 0 by Schreier's lemma, t s t'^-1 for
    each orbit point t, letter s and orbit point t' = t s, with t and t'
    read as the words that reach them on a breadth-first tree)."""
    f = FreeFamily(rank)
    perms = {}
    for i in range(1, rank + 1):
        image = list(range(m))
        rng.shuffle(image)
        perms[i] = image
        perms[-i] = [image.index(v) for v in range(m)]

    def act(word, v=0):
        for letter in word:
            v = perms[letter][v]
        return v

    reach = {0: ()}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for x, image in perms.items():
                if image[v] not in reach:
                    reach[image[v]] = reach[v] + (x,)
                    nxt.append(image[v])
        frontier = nxt
    gens = [f.multiply(f.multiply(reach[v], (x,)),
                       f.inverse(reach[perms[x][v]]))
            for v in reach for x in range(1, rank + 1)]
    return act, len(reach), [g for g in gens if g]


@pytest.mark.parametrize("rank, length, seed", [(2, 4, 2), (3, 3, 3)])
def test_stallings_decides_a_stabilizer(rank, length, seed):
    # the stabilizer of a point under a permutation action: a word is in it
    # exactly when it fixes 0, and its index is the size of the orbit of 0,
    # which the coset closure over the multigraph fold's membership finds
    rng = random.Random(seed)
    f = FreeFamily(rank)
    words = _reduced_words(rank, length)
    for m in list(range(1, 9)) * 4:
        act, orbit, gens = _stabilizer(rank, m, rng)
        assert StallingsGraph(f, gens).index() == orbit, gens
        assert probes._subgroup_index(f, gens) == ("finite", orbit), gens
        moves, root, _vertices = _multigraph_fold(gens)

        def member(w):
            return _oracle_contains(moves, root, w)

        assert [member(w) for w in words] == [act(w) == 0 for w in words]
        assert _coset_count(f, member, m) == orbit, gens


def _det(rows):
    # Laplace expansion along the first row
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def _box_index(rows, rank, n):
    """[Z^rank : L + n Z^rank] for L the lattice the rows span: n^rank over
    the number of points of the box [0, n)^rank that sums of the rows
    reach mod n."""
    reached = {(0,) * rank}
    frontier = list(reached)
    while frontier:
        nxt = []
        for v in frontier:
            for row in rows:
                w = tuple((x + y) % n for x, y in zip(v, row))
                if w not in reached:
                    reached.add(w)
                    nxt.append(w)
        frontier = nxt
    return n ** rank // len(reached)


@pytest.mark.parametrize("rank, seed", [(1, 4), (2, 5), (3, 6)])
def test_lattice_index_matches_its_minors(rank, seed):
    # the index of the lattice L spanned by integer rows is the gcd of their
    # rank x rank minors, and infinite when all vanish; a finite index n
    # puts n Z^rank inside L, so the box of side n holds exactly n^(rank-1)
    # classes of points of L
    rng = random.Random(seed)
    f = FreeAbelianFamily(rank)
    for _ in range(100):
        rows = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(1, rank + 2))]
        minors = 0
        for square in itertools.combinations(rows, rank):
            minors = math.gcd(minors, _det([list(r) for r in square]))
        verdict = probes._subgroup_index(f, rows)
        assert verdict == _as_verdict(minors or None), rows
        if minors and minors ** rank <= 20000:
            assert _box_index(rows, rank, minors) == minors, rows


def test_permutation_index_is_a_ratio_of_orders():
    rng = random.Random(7)
    for _ in range(100):
        m = rng.randint(1, 5)
        group = FinitePermutationFamily(
            [tuple(rng.sample(range(m), m)) for _ in range(rng.randint(1, 2))])
        elements = group.elements()
        gens = [rng.choice(elements) for _ in range(rng.randint(0, 2))]
        sub = set(FinitePermutationFamily(gens or [group.identity()])
                  .elements())
        index = _coset_count(group, sub.__contains__, len(elements))
        assert probes._subgroup_index(group, gens) == ("finite", index), gens


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
