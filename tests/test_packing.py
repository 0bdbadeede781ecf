import gc
import random
from fractions import Fraction

import pytest

from bgkit import packing, presets, spaces
from bgkit.actions import (GluedLineShiftAction, LatticeTranslationAction,
                           LeftTranslationAction)
from bgkit.exact import DomainError, WindowError
from bgkit.groups import (FinitePermutationFamily, FreeAbelianFamily,
                          FreeFamily, ProductFamily, TrivialFamily)
from bgkit.measures import (CountingOrbitMeasure, DistanceProfile,
                            VertexMeasure)
from bgkit.packing import gamma_packing_count, packing_count, sandwich_check
from bgkit.spaces import CayleySpace, GluedLineSpace


def line_space():
    return CayleySpace(FreeAbelianFamily(1))


def lattice_space():
    return CayleySpace(FreeAbelianFamily(2))


def oracle_pack(space, x, r, R):
    """Independent exhaustive oracle: DFS over candidate subsets."""
    candidates = [p for p, d in space.ball(x, R - r, closed=True)]
    return _mis_bruteforce(space, candidates, 2 * r)


def test_line_packing_exact():
    space = line_space()
    res = packing_count(space, (5,), 1, 5, mode="exact")
    # brute-force oracle: {1,3,5,7,9} fits, so 5 (not the "obvious" 4)
    assert res.count == 5
    assert res.count == oracle_pack(space, (5,), 1, 5)
    assert res.method.startswith("exact")


def test_half_radius_single_ball():
    space = line_space()
    res = packing_count(space, (0,), Fraction(5, 2), 5, mode="exact")
    assert res.count == 1
    with pytest.raises(DomainError):
        packing_count(space, (0,), 3, 5)


def test_lattice_packing_matches_bruteforce():
    space = lattice_space()
    for r, R in [(1, 3), (1, 4), (2, 4)]:
        res = packing_count(space, (0, 0), r, R, mode="exact", cap=200)
        assert res.count == oracle_pack(space, (0, 0), r, R)


def test_greedy_below_exact_and_valid():
    space = lattice_space()
    for r, R in [(1, 4), (2, 6)]:
        greedy = packing_count(space, (0, 0), r, R, mode="greedy")
        exact = packing_count(space, (0, 0), r, R, mode="exact", cap=300)
        assert greedy.count <= exact.count


def first_fit_oracle(space, x, r, R):
    """The greedy packing as a plain Fraction loop: candidates in ball order,
    each taken when it is at least 2r from every center taken so far."""
    chosen = []
    for p, _d in space.ball(x, R - r, closed=True):
        if all(space.distance(p, q) >= 2 * r for q in chosen):
            chosen.append(p)
    return chosen


def test_greedy_matches_first_fit_oracle():
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 44)
    cases = [(lattice_space(), (0, 0), r, R)
             for r, R in [(1, 4), (Fraction(3, 2), 6), (2, 9),
                          (Fraction(1, 2), 5), (Fraction(3, 4), 4)]]
    cases += [(gl, gl.tip(0), r, R)
              for r, R in [(Fraction(1, 2), 3), (1, 4), (Fraction(3, 4), 5),
                           (Fraction(1, 3), 2),
                           (Fraction(1, 20), Fraction(9, 10))]]
    for space, x, r, R in cases:
        res = packing_count(space, x, r, R, mode="greedy")
        assert res.centers == first_fit_oracle(space, x, Fraction(r), R)
        assert res.count == len(res.centers)
        assert res.method == "greedy"


def test_conflict_graph_takes_no_fraction_distances(monkeypatch):
    space = lattice_space()
    calls = []
    original = CayleySpace.distance

    def counted(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(CayleySpace, "distance", counted)
    act = LatticeTranslationAction(space, [[2, 0], [0, 2]])
    for r, R in [(1, 4), (Fraction(3, 2), 6)]:
        for mode in ("exact", "greedy"):
            # candidates, conflict graph, first fit and audit all read ints
            assert packing_count(space, (0, 0), r, R, mode=mode).count
            assert gamma_packing_count(act, (0, 0), r, R, mode=mode).count
            assert calls == []


def test_audit_compares_fraction_distances_exactly():
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 44)
    # hair tips: d(x, y) = 11/10 and d(x, z) = 6/5
    x, y, z = gl.tip(0), gl.tip(1), gl.tip(2)
    r, R = Fraction(11, 20), Fraction(33, 20)   # 2r = R - r = 11/10
    packing._verify_packing(gl, x, [x, y], r, R)
    with pytest.raises(AssertionError, match="escapes the containment radius"):
        packing._verify_packing(gl, x, [x, z], r, R)
    # 2r = R - r = 6/5
    packing._verify_packing(gl, x, [x, z], Fraction(3, 5), Fraction(9, 5))
    with pytest.raises(AssertionError, match="centers closer than 2r"):
        packing._verify_packing(gl, x, [x, y], Fraction(3, 5), Fraction(9, 5))


def test_candidate_rows_on_the_glued_line_scale():
    # distances from the tip are on scale 10, and R - r = 23/20 is off that
    # grid: tip 1 at 11/10 is in, tip 2 at 6/5 out (floor, not ceil)
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 44)
    x = gl.tip(0)
    for r, R in [(Fraction(23, 40), Fraction(69, 40)),    # 2r = R - r = 23/20
                 (Fraction(11, 20), Fraction(33, 20))]:   # 2r = R - r = 11/10
        cands = [gl.tip(k) for k in (3, -2, 2, 1, -1, 0)]
        cands += [gl.base(k) for k in (7, -6, 6, 0)]
        want = sorted((p for p in cands if gl.distance(x, p) <= R - r),
                      key=lambda p: (gl.distance(x, p), spaces.point_key(p)))
        assert packing._candidate_rows(gl, x, r, R, cands) == want
        assert packing._candidate_rows(gl, x, r, R, None) == [
            p for p, _d in gl.ball(x, R - r, closed=True)]
        centers = packing_count(gl, x, r, R, mode="exact").centers
        assert all(gl.distance(x, c) <= R - r for c in centers)
        assert all(gl.distance(a, b) >= 2 * r
                   for i, a in enumerate(centers) for b in centers[:i])


def test_exact_cap_guard():
    space = lattice_space()
    with pytest.raises(DomainError):
        packing_count(space, (0, 0), 1, 8, mode="exact", cap=10)


def test_exact_cap_refuses_cayley_balls_before_enumerating(monkeypatch):
    # on a Cayley space the closed-form ball size is checked against the
    # cap, so an over-cap ball is refused without being enumerated, with
    # the refusals and messages of the enumerating path in the same order
    def refuse(*_args, **_kwargs):
        raise AssertionError("over-cap ball enumerated")

    monkeypatch.setattr(CayleySpace, "ball", refuse)
    free = CayleySpace(FreeFamily(2))
    with pytest.raises(DomainError, match=r"^118097 candidates exceed the "
                       r"exact cap 60; use greedy mode or raise the cap$"):
        packing_count(free, (), 2, 12, mode="exact")
    with pytest.raises(DomainError, match=r"^13 candidates exceed the exact "
                       r"cap 12"):
        packing_count(lattice_space(), (5, 5), 1, 3, mode="exact", cap=12)
    with pytest.raises(DomainError, match="is not a point"):
        packing_count(free, (1, -1), 2, 12, mode="exact")
    with pytest.raises(WindowError, match="over the enumeration budget"):
        packing_count(free, (), 1, 16, mode="exact")
    with pytest.raises(DomainError, match="packing needs"):
        packing_count(free, (1, -1), 3, 4, mode="exact")


def test_bipartite_koenig_path_on_unit_conflicts(monkeypatch):
    # r = 1 on the lattice: conflict graph is the grid adjacency (bipartite)
    space = lattice_space()
    parts = []
    bipartition = packing._bipartition
    monkeypatch.setattr(packing, "_bipartition",
                        lambda masks, comp: parts.append(comp) or
                        bipartition(masks, comp))
    res = packing_count(space, (0, 0), 1, 8, mode="exact", cap=300)
    assert "koenig" in res.method
    # one connected conflict graph, two-coloured once
    assert len(parts) == 1
    # parity argument: the odd class 4+12+20+28 = 64 is independent and
    # maximum (distinct odd-parity points sit at even l1 distance >= 2)
    assert res.count == 64


@pytest.mark.parametrize("r, method", [(1, "exact+koenig"),
                                       (Fraction(3, 2), "exact")])
def test_exact_packing_leaves_no_cycles(r, method):
    # the matching and the branch and bound recurse through module-level
    # functions: a call leaves nothing for the cyclic collector
    space = lattice_space()
    gc.disable()
    try:
        gc.collect()
        res = packing_count(space, (0, 0), r, 6, mode="exact", cap=300)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert res.method == method


def test_packing_monotonicity():
    space = lattice_space()
    counts_R = [packing_count(space, (0, 0), 1, R, mode="exact", cap=300).count
                for R in (2, 4, 6, 8)]
    assert counts_R == sorted(counts_R)
    c_small_r = packing_count(space, (0, 0), 2, 8, mode="exact", cap=300).count
    assert c_small_r <= counts_R[-1]


def test_gamma_packing_trivial_group():
    act = LeftTranslationAction(TrivialFamily())
    res = gamma_packing_count(act, (), 1, 2, mode="exact")
    assert res.count == 1


def test_gamma_packing_line_translation():
    space = line_space()
    act = LatticeTranslationAction(space, [[1]])
    res = gamma_packing_count(act, (0,), 1, 5, mode="exact")
    # full orbit: same as the unrestricted count, {-4,-2,0,2,4}
    assert res.count == 5
    assert res.note


def test_gamma_packing_free_group():
    act = LeftTranslationAction(FreeFamily(2))
    res = gamma_packing_count(act, (), 1, 3, mode="exact", cap=200)
    # orbit = all vertices; candidates = closed ball of radius 2 (17 points)
    assert res.candidates == 17
    space = act.space
    pts = [p for p, _ in space.ball((), 2, closed=True)]
    assert res.count == _mis_bruteforce(space, pts, 2)


def _mis_bruteforce(space, pts, min_dist):
    """Plain DFS over subsets with only the trivial remaining-count cut."""
    best = 0
    n = len(pts)
    adj = [[space.distance(pts[i], pts[j]) < min_dist and i != j
            for j in range(n)] for i in range(n)]

    def extend(idx, chosen):
        nonlocal best
        if idx == n:
            best = max(best, len(chosen))
            return
        if len(chosen) + (n - idx) <= best:
            return
        if all(not adj[idx][c] for c in chosen):
            chosen.append(idx)
            extend(idx + 1, chosen)
            chosen.pop()
        extend(idx + 1, chosen)

    extend(0, [])
    return best


def condition_count(space, x, r0, cap=packing.EXACT_CAP):
    """Pack(x, r0/2, 11 r0), the count the packing condition bounds by N0."""
    r0 = Fraction(r0)
    return packing_count(space, x, r0 / 2, 11 * r0, mode="exact",
                         cap=cap).count


def test_packing_condition():
    # Pack(x, 1/2, 11) on the line: every integer in [-21/2, 21/2] fits,
    # so the condition holds for N0 = 50 and fails for N0 = 20
    assert condition_count(line_space(), (0,), 1, cap=100) == 21


def test_sandwich_line_translation():
    space = line_space()
    act = LatticeTranslationAction(space, [[10]])
    mu = VertexMeasure()
    for r in (1, 2, 3, 4):
        for R in range(2 * r, 9):
            rep = sandwich_check(act, mu, (0,), r, R,
                                 sup_sample=[(i,) for i in range(10)], cap=400)
            assert rep.chain_holds
            assert rep.details["sup_sample_size"] == 10
    # a generator sample is read once and still counted in full
    rep = sandwich_check(act, mu, (0,), 1, 3,
                         sup_sample=((i,) for i in range(10)), cap=400)
    assert rep.chain_holds
    assert rep.details["sup_sample_size"] == 10


def test_sandwich_torus_with_lemma(monkeypatch):
    nodes = []
    branch = packing._bb_branch

    def counted(*args):
        nodes.append(None)
        return branch(*args)

    # the recursion looks _bb_branch up in the module, so every node counts
    monkeypatch.setattr(packing, "_bb_branch", counted)
    space = lattice_space()
    act = LatticeTranslationAction(space, [[5, 0], [0, 5]])
    mu = VertexMeasure()
    rep = sandwich_check(act, mu, (0, 0), 5, 20,
                         sup_sample=[(i, j) for i in range(5) for j in range(5)],
                         cap=600)
    assert rep.chain_holds
    assert rep.lemma_pack_vs_orbit is not None
    pack_all, pack_shrunk, holds = rep.lemma_pack_vs_orbit
    assert holds
    # the clique-cover bound closes each branch-and-bound component at or
    # near the root
    assert 0 < len(nodes) <= 100


def _count_profile_builds(monkeypatch):
    """Record (kind, center) of every profile the sandwich builds, a
    center-free one as "center_free"; memo hits build nothing."""
    builds = []
    for cls in (VertexMeasure, CountingOrbitMeasure):
        def counted(self, space, center, upto, _build=cls._build_profile,
                    _name=cls.__name__):
            builds.append(("center_free" if self._center_free(space)
                           else _name, center))
            return _build(self, space, center, upto)
        monkeypatch.setattr(cls, "_build_profile", counted)
    return builds


TORUS_REPORT = (1, 1, 25, 16, 113, True, None,
                {"sup_sample_size": 25, "codiameter": 4})


def _torus_sandwich(measure):
    space = lattice_space()
    act = LatticeTranslationAction(space, [[5, 0], [0, 5]])
    sample = [(i, j) for i in range(5) for j in range(5)]
    rep = sandwich_check(act, measure, (0, 0), 1, 4, sup_sample=sample,
                         cap=600)
    assert (rep.counting_lower, rep.pack_orbit, rep.invariant_ratio,
            rep.pack_all, rep.sup_ratio, rep.chain_holds,
            rep.lemma_pack_vs_orbit, rep.details) == TORUS_REPORT
    return sample


def test_sandwich_builds_one_profile_per_center(monkeypatch):
    builds = _count_profile_builds(monkeypatch)
    _torus_sandwich(VertexMeasure())
    # x is in the sample and the uniform measure is center-free: its one
    # profile, built at x to 2R, serves both ratios and the whole sup
    assert builds == [("CountingOrbitMeasure", (0, 0)),
                      ("center_free", (0, 0))]


@pytest.mark.parametrize("measure, sup_ratios", [
    (VertexMeasure(), 1), (VertexMeasure(weight_fn=lambda _p: 1), 25)])
def test_sandwich_reads_one_sup_ratio_per_profile(measure, sup_ratios,
                                                  monkeypatch):
    # the lower and invariant ratios, then one sup ratio per distinct
    # profile: one for the center-free measure, one per point otherwise
    calls = []
    ratio = DistanceProfile.ratio

    def counted(self, big, small, closed=False):
        calls.append((big, small))
        return ratio(self, big, small, closed=closed)

    monkeypatch.setattr(DistanceProfile, "ratio", counted)
    _torus_sandwich(measure)
    assert calls == [(3, 2), (4, 1)] + [(8, 1)] * sup_ratios


def test_sandwich_builds_per_center_without_a_center_free_profile(
        monkeypatch):
    # the same unit masses as weights: not center-free, so every sample
    # point but x gets its own profile, with the same report values
    builds = _count_profile_builds(monkeypatch)
    sample = _torus_sandwich(VertexMeasure(weight_fn=lambda _p: 1))
    assert builds == ([("CountingOrbitMeasure", (0, 0)),
                       ("VertexMeasure", (0, 0))]
                      + [("VertexMeasure", y) for y in sample[1:]])


@pytest.mark.parametrize("measure", [
    VertexMeasure(), VertexMeasure(weight_fn=lambda _p: 1)])
def test_sandwich_checks_every_sup_point(measure):
    # the one center-free profile is not read at a later point until its
    # ball is checked there, so both measures refuse the same point
    space, act, _measure = presets.instance(presets.spec("torus5"))
    with pytest.raises(DomainError,
                       match=r"\(0, 0, 0\) is not a point of this cayley"):
        sandwich_check(act, measure, (0, 0), 1, 4,
                       sup_sample=[(0, 0), (1, 1), (0, 0, 0)], cap=600)


@pytest.mark.parametrize("name", ["line10", "torus5", "lattice2"])
def test_sandwich_sup_matches_per_center_counts(name):
    # sup over the sample of #B(y, 2R) / #B(y, r), open balls counted by
    # enumeration at each y, for the center-free uniform measure and for
    # the same unit masses as weights
    space, act, _measure = presets.instance(presets.spec(name))
    sample = {"line10": [(i,) for i in range(10)],
              "torus5": [(i, j) for i in range(5) for j in range(5)],
              "lattice2": [(0, 0), (3, -1), (-2, 5)]}[name]
    x = sample[0]
    for r, R in [(1, 2), (1, 4), (2, 5)]:
        for sup_sample in (sample, sample[1:]):
            want = max(Fraction(len(space.ball(y, 2 * R)),
                                len(space.ball(y, r))) for y in sup_sample)
            for measure in (VertexMeasure(),
                            VertexMeasure(weight_fn=lambda _p: 1)):
                rep = sandwich_check(act, measure, x, r, R,
                                     sup_sample=sup_sample, cap=600)
                assert rep.sup_ratio == want, (r, R)


def test_sandwich_past_the_window_keeps_its_order(monkeypatch):
    # R = 4 is inside the safe window 13/2 at the tip, 2R = 8 is not: the
    # invariant profile at x is built to R, the full packing runs, and then
    # the sup refuses
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 60)
    act = GluedLineShiftAction(gl)
    x = gl.tip(0)
    events = []
    original = VertexMeasure.profile

    def counted(self, space, center, upto):
        events.append(("profile", center, upto))
        return original(self, space, center, upto)

    def packed(*args, **kwargs):
        events.append(("packing",))
        return packing_count(*args, **kwargs)

    monkeypatch.setattr(VertexMeasure, "profile", counted)
    monkeypatch.setattr("bgkit.packing.packing_count", packed)
    with pytest.raises(WindowError, match="radius 8 exceeds the safe window"):
        sandwich_check(act, VertexMeasure(), x, 1, 4, sup_sample=[x], cap=600)
    assert events[-3:] == [("profile", x, 4), ("packing",), ("profile", x, 8)]


def test_sandwich_refuses_bad_radii_before_profiles(monkeypatch):
    def refuse(*_args):
        raise AssertionError("no profile before the radii are checked")

    for cls in (VertexMeasure, CountingOrbitMeasure):
        monkeypatch.setattr(cls, "profile", refuse)
    space = lattice_space()
    act = LatticeTranslationAction(space, [[5, 0], [0, 5]])
    for r, R in [(0, 4), (-1, 4), (3, 4), (5, 4)]:
        with pytest.raises(DomainError, match=r"packing needs 0 < r <= R/2"):
            sandwich_check(act, VertexMeasure(), (0, 0), r, R,
                           sup_sample=[(0, 0)])


def test_sandwich_refuses_an_empty_sup_sample(monkeypatch):
    # refused before any profile or packing, for a list and a generator
    def refuse(*_args, **_kwargs):
        raise AssertionError("no work before the sup sample is checked")

    for cls in (VertexMeasure, CountingOrbitMeasure):
        monkeypatch.setattr(cls, "profile", refuse)
    monkeypatch.setattr(packing, "packing_count", refuse)
    monkeypatch.setattr(packing, "gamma_packing_count", refuse)
    space = lattice_space()
    act = LatticeTranslationAction(space, [[5, 0], [0, 5]])
    for sample in ([], (), (y for y in [])):
        with pytest.raises(DomainError, match="nonempty sup sample"):
            sandwich_check(act, VertexMeasure(), (0, 0), 1, 4,
                           sup_sample=sample)


def test_packing_condition_atom_and_lattice():
    from bgkit.presets import atom_instance
    space = atom_instance()[0]
    assert condition_count(space, (), 1) == 1
    # the lattice packs the whole closed 10-diamond at half scale: 221 balls,
    # within N0 = 250 and past N0 = 200
    assert condition_count(lattice_space(), (0, 0), 1, cap=600) == 221


def test_packing_condition_glued_line_fails_small_bound():
    from bgkit.spaces import GluedLineSpace
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 115)
    assert condition_count(gl, gl.tip(0), 1, cap=500) > 50


def test_orbit_packing_below_unrestricted():
    space = lattice_space()
    act = LatticeTranslationAction(space, [[5, 0], [0, 5]])
    for r, R in [(1, 4), (1, 8), (2, 6)]:
        orbit = gamma_packing_count(act, (0, 0), r, R, mode="exact", cap=400)
        full = packing_count(space, (0, 0), r, R, mode="exact", cap=400)
        assert orbit.count <= full.count


def test_gamma_packing_refuses_past_window():
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 44)
    act = GluedLineShiftAction(gl)
    # candidates come from an orbit scan to R - r = 8 > 49/10
    with pytest.raises(WindowError):
        gamma_packing_count(act, gl.tip(0), 1, 9, mode="greedy")
    res = gamma_packing_count(act, gl.tip(0), 1, Fraction(59, 10), mode="greedy")
    assert res.candidates == 79


# -- the branch-and-bound bound and witness --------------------------------------

def _random_masks(rng, n, density):
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _components_by_dfs(masks):
    """Connected components by a per-edge depth-first search, sorted, in
    order of their lowest vertex."""
    n = len(masks)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp, stack = [], [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in range(n):
                if (masks[u] >> v) & 1 and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def test_components_match_per_edge_dfs():
    rng = random.Random(29)
    assert packing._components([]) == []
    for density in (0, 0.02, 0.05, 0.1, 0.3, 0.7):
        for n in (1, 2, 7, 20, 45, 70):
            masks = _random_masks(rng, n, density)
            assert packing._components(masks) == _components_by_dfs(masks)


def _conflict_spaces():
    """(space, candidate points) pairs: Cayley presets, a product with
    torsion, the glued line and a weighted-graph vertex subset."""
    def preset(name, x, radius):
        space = presets.Instance(presets.spec(name)).space
        return space, [p for p, _d in space.ball(x, radius, closed=True)]

    product = CayleySpace(ProductFamily([FreeAbelianFamily(1),
                                         FinitePermutationFamily([(1, 2, 0)])]))
    gl = GluedLineSpace(Fraction(1, 10), Fraction(1, 2), 44)
    rng = random.Random(31)
    verts = list(range(30))
    edges = [(rng.randrange(i), i, Fraction(rng.randint(1, 6), rng.randint(1, 3)))
             for i in range(1, 30)]
    edges += [tuple(rng.sample(verts, 2)) + (Fraction(rng.randint(1, 6), 2),)
              for _ in range(12)]
    graph = spaces.WeightedGraph(verts, edges)
    return [preset("lattice2", (0, 0), 4), preset("torus5", (3, -2), 4),
            preset("line10", (7,), 12), preset("free2", (1, -2), 3),
            (product, [p for p, _d in product.ball(((0,), (0, 1, 2)), 4,
                                                   closed=True)]),
            (gl, [p for p, _d in gl.ball(gl.tip(0), 2, closed=True)]
             + [("line", Fraction(k, 7)) for k in range(-5, 6)]),
            (graph, verts[3:27])]


def test_conflict_masks_match_fraction_comparisons():
    rng = random.Random(37)
    for space, points in _conflict_spaces():
        for size in (0, 1, 2, 40):
            subset = rng.sample(points, min(size, len(points)))
            for r in (Fraction(1, 2), 1, Fraction(3, 2), 2):
                want = [sum(1 << j for j, b in enumerate(subset)
                            if j != i and space.distance(a, b) < 2 * r)
                        for i, a in enumerate(subset)]
                assert packing._conflict_masks(space, subset, Fraction(r)) \
                    == want


def _alpha_by_subsets(masks, avail):
    """Independence number of the graph induced on avail, over all subsets:
    a subset is independent when it is so without its lowest vertex and
    that vertex has no neighbour in it."""
    verts = [v for v in range(len(masks)) if (avail >> v) & 1]
    local = [sum(1 << j for j, w in enumerate(verts) if (masks[v] >> w) & 1)
             for v in verts]
    independent = bytearray(1 << len(verts))
    independent[0] = 1
    alpha = 0
    for subset in range(1, 1 << len(verts)):
        low = (subset & -subset).bit_length() - 1
        rest = subset & (subset - 1)
        if independent[rest] and not local[low] & rest:
            independent[subset] = 1
            alpha = max(alpha, subset.bit_count())
    return alpha


def test_clique_cover_bound_is_at_least_alpha():
    rng = random.Random(17)
    for density in (0.1, 0.3, 0.5, 0.8):
        for n in range(1, 15):
            masks = _random_masks(rng, n, density)
            full = (1 << n) - 1
            for avail in (full, rng.getrandbits(n) & full):
                bound = packing._clique_cover_bound(masks, avail)
                assert _alpha_by_subsets(masks, avail) <= bound
                assert bound <= avail.bit_count()


def _unpruned_mis(masks, comp):
    """The set the unpruned DFS of `_bb_branch` keeps: the same greedy seed,
    branching vertex and take-before-skip order, and no bound.  With strict
    improvement that is the first leaf of largest size when it beats the
    seed.  The leaves below a node depend only on its available set, so the
    first largest one is memoised on that set."""
    avail0 = sum(1 << u for u in comp)
    seed = packing._greedy_mis_mask(masks, avail0)
    memo = {}

    def first_largest(avail):
        if not avail:
            return 0, 0
        if avail not in memo:
            # maximum degree inside avail, lowest index on ties
            pick = max((v for v in comp if (avail >> v) & 1),
                       key=lambda v: ((masks[v] & avail).bit_count(), -v))
            if not masks[pick] & avail:
                memo[avail] = avail.bit_count(), avail
            else:
                bit = 1 << pick
                took, took_mask = first_largest(avail & ~bit & ~masks[pick])
                skipped, skipped_mask = first_largest(avail & ~bit)
                if took + 1 >= skipped:
                    memo[avail] = took + 1, took_mask | bit
                else:
                    memo[avail] = skipped, skipped_mask
        return memo[avail]

    size, chosen = first_largest(avail0)
    if size <= seed.bit_count():
        chosen = seed
    return [u for u in comp if (chosen >> u) & 1]


def test_bb_mis_matches_unpruned_dfs_on_random_graphs():
    rng = random.Random(23)
    for density in (0.1, 0.2, 0.35, 0.5, 0.7):
        for n in (3, 8, 13, 20, 28, 36):
            masks = _random_masks(rng, n, density)
            for comp in packing._components(masks):
                assert packing._bb_mis(masks, comp) == _unpruned_mis(masks,
                                                                     comp)


def test_bb_mis_matches_unpruned_dfs_on_pack_instances(monkeypatch):
    solved = []
    bb_mis = packing._bb_mis

    def recorded(masks, comp):
        chosen = bb_mis(masks, comp)
        solved.append((masks, comp, chosen))
        return chosen

    monkeypatch.setattr(packing, "_bb_mis", recorded)
    lattice = LatticeTranslationAction(lattice_space(), [[5, 0], [0, 5]])
    line = LatticeTranslationAction(line_space(), [[10]])
    free = CayleySpace(FreeFamily(2))
    runs = [lambda r, R: packing_count(lattice.space, (0, 0), r, R),
            lambda r, R: packing_count(free, (), r, R),
            lambda r, R: packing_count(line.space, (0,), r, R),
            lambda r, R: gamma_packing_count(lattice, (0, 0), r, R),
            lambda r, R: gamma_packing_count(line, (0,), r, R)]
    for run in runs:
        for r in (Fraction(1, 2), 1, Fraction(3, 2), 2):
            R = 2 * r
            while R <= 6 * r:
                try:
                    run(r, R)
                except DomainError:   # past the exact cap of 60 candidates
                    break
                R += 1
    assert len(solved) > 100
    assert max(len(comp) for _m, comp, _c in solved) > 40
    for masks, comp, chosen in solved:
        assert chosen == _unpruned_mis(masks, comp)
